//! Property tests for the dense side table, the inline id list and the
//! intern table: parity with the `std` containers they replaced, plus
//! whole-context clone fidelity — a clone and its original share payloads and
//! never show each other's edits — and op liveness, free-list slot reuse and
//! slot epochs through the public `Context` API.

// The std hash containers ARE the reference model here, so the crate-wide
// dense-table lint does not apply.
#![allow(clippy::disallowed_types)]

use hida_ir_core::fingerprint::structural_fingerprint;
use hida_ir_core::printer::print_op;
use hida_ir_core::storage::{EntityMap, IdList};
use hida_ir_core::walk::collect_preorder;
use hida_ir_core::{Attribute, BlockId, Context, OpBuilder, OpId, Symbol, Type, ValueId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

proptest! {
    /// `EntityMap` behaves exactly like `HashMap<usize, i64>` under a random
    /// interleaving of insert / remove / get, including return values and the
    /// live count.
    #[test]
    fn entity_map_matches_hash_map_model(
        ops in prop::collection::vec((0_u8..3, 0_usize..48, -1000_i64..1000), 1..64),
    ) {
        let mut dense: EntityMap<ValueId, i64> = EntityMap::new();
        let mut model: HashMap<usize, i64> = HashMap::new();
        for (kind, index, value) in ops {
            let id = ValueId::from_index(index);
            match kind {
                0 => prop_assert_eq!(dense.insert(id, value), model.insert(index, value)),
                1 => prop_assert_eq!(dense.remove(id), model.remove(&index)),
                _ => prop_assert_eq!(dense.get(id), model.get(&index)),
            }
            prop_assert_eq!(dense.len(), model.len());
            prop_assert_eq!(dense.is_empty(), model.is_empty());
        }
        // Iteration yields every modelled entry, in id order.
        let mut expected: Vec<(usize, i64)> = model.into_iter().collect();
        expected.sort_unstable();
        let got: Vec<(usize, i64)> = dense.iter().map(|(id, &v)| (id.index(), v)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Op liveness and slot epochs under a random interleaving of leaf and
    /// region-op creation (into the function or a live region op), erasure
    /// (a region op takes its nested ops with it) and clones, edited side
    /// by side afterwards: every context agrees with its model on
    /// `is_alive`, `num_live_ops` and `free_op_slots` after every step, a
    /// creation takes a freed slot whenever one exists, every erase and
    /// every reuse moves the slot's epoch, and no other step moves any.
    #[test]
    fn op_liveness_and_epochs_match_a_model_across_clones(
        steps in prop::collection::vec((0_u8..6, 0_usize..64, 0_usize..64), 1..80),
    ) {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let model = LivenessModel::of(&ctx, func);
        let mut sides = vec![(ctx, model)];
        for (kind, pick_side, pick) in steps {
            let side = pick_side % sides.len();
            if kind == 5 {
                if sides.len() < 3 {
                    let copy = (sides[side].0.clone(), sides[side].1.clone());
                    copy.1.check(&copy.0);
                    sides.push(copy);
                }
                continue;
            }
            let (ctx, model) = &mut sides[side];
            match kind {
                0..=2 => model.create(ctx, pick, kind == 2),
                _ => model.erase(ctx, pick),
            }
            model.check(ctx);
        }
        // Edits on one side never showed on another.
        for (ctx, model) in &sides {
            model.check(ctx);
        }
    }

    /// `IdList` behaves exactly like `Vec` under a random interleaving of
    /// push / insert / insert_slice / remove / retain — across the inline capacity in
    /// both directions — in content, order, equality and what its
    /// constructors build.
    #[test]
    fn id_list_matches_vec_model(
        ops in prop::collection::vec((0_u8..11, 0_usize..64, 0_usize..1000), 1..64),
    ) {
        let id = ValueId::from_index;
        let mut list: IdList<ValueId> = IdList::new();
        let mut model: Vec<ValueId> = Vec::new();
        for (kind, at, value) in ops {
            match kind {
                0..=3 => {
                    list.push(id(value));
                    model.push(id(value));
                }
                4 | 5 => {
                    let at = at % (model.len() + 1);
                    list.insert(at, id(value));
                    model.insert(at, id(value));
                }
                6 | 7 if !model.is_empty() => {
                    let at = at % model.len();
                    prop_assert_eq!(list.remove(at), model.remove(at));
                }
                8 => {
                    let modulus = at % 3 + 2;
                    list.retain(|v| v.index() % modulus != 0);
                    model.retain(|v| v.index() % modulus != 0);
                }
                9 if at % 8 == 0 => {
                    list = IdList::default();
                    model.clear();
                }
                10 => {
                    // Zero to four ids at once, in place and across the spill.
                    let ids: Vec<ValueId> = (value..value + value % 5).map(id).collect();
                    let at = at % (model.len() + 1);
                    list.insert_slice(at, &ids);
                    model.splice(at..at, ids);
                }
                _ => {}
            }
            prop_assert_eq!(&list[..], &model[..]);
            prop_assert_eq!(list.len(), model.len());
            prop_assert_eq!(list.is_empty(), model.is_empty());
            prop_assert_eq!(list.first(), model.first());
            prop_assert!(list == model);
            let walked: Vec<ValueId> = (&list).into_iter().copied().collect();
            prop_assert_eq!(&walked, &model);
            // Every way of building a list of these ids builds an equal one.
            let built = [
                list.clone(),
                IdList::from(model.clone()),
                IdList::from(model.as_slice()),
                model.iter().copied().collect(),
            ];
            prop_assert!(built.iter().all(|other| *other == list));
        }
        // Unequal lists compare unequal, whichever side of the capacity.
        let mut other = list.clone();
        other.push(id(7));
        prop_assert!(other != list);
    }

    /// A clone shares every payload with its original, and neither ever sees
    /// the other's edits: random `set_attr` / `set_name_hint` / operand edits
    /// / op erasure on one side leave the printed IR and the structural
    /// fingerprint of the other side exactly as they were.
    #[test]
    fn edits_on_one_side_of_a_clone_never_show_on_the_other(
        edit_original in 0_u8..2,
        edits in prop::collection::vec((0_u8..8, 0_usize..64, 0_usize..64), 1..24),
    ) {
        let mut original = Context::new();
        let module = sample_module(&mut original);
        let mut clone = original.clone();
        let (edited, untouched) = if edit_original == 1 {
            (&mut original, &clone)
        } else {
            (&mut clone, &original)
        };
        let printed = print_op(untouched, module);
        let fingerprint = structural_fingerprint(untouched, module);

        for (kind, pick_op, pick_value) in edits {
            let ops: Vec<OpId> = collect_preorder(edited, module);
            let values: Vec<ValueId> = ops.iter().flat_map(|&op| defined_by(edited, op)).collect();
            if values.is_empty() {
                break; // everything but the module was erased
            }
            let op = ops[pick_op % ops.len()];
            let value = values[pick_value % values.len()];
            match kind {
                0 => edited.set_attr(op, "task_name", format!("edited{pick_value}")),
                1 => edited.set_attr(op, "factors", vec![pick_value as i64; pick_op % 5]),
                2 => edited.set_attr(op, "fashions",
                    Attribute::StrArray(["block".into(), "none".into()].into()),
                ),
                3 => edited.set_attr(op, "elem", Type::memref(vec![pick_value as i64], Type::i8())),
                4 => edited.set_name_hint(value, format!("renamed{pick_op}")),
                5 => edited.add_operand(op, value),
                6 if !edited.op(op).operands.is_empty() => {
                    let at = pick_value % edited.op(op).operands.len();
                    edited.set_operand(op, at, value);
                }
                7 if op != module => edited.erase_op(op),
                _ => {}
            }
            prop_assert_eq!(&print_op(untouched, module), &printed);
            prop_assert_eq!(structural_fingerprint(untouched, module), fingerprint);
        }
    }

    /// Interning is a pure function from string to symbol: duplicates map to
    /// the same symbol (HashMap-model parity) and every symbol resolves back
    /// to exactly the interned text.
    #[test]
    fn intern_table_matches_hash_map_model(
        picks in prop::collection::vec((0_usize..12, 0_u8..2), 1..48),
    ) {
        let names = [
            "arith.addi", "arith.muli", "hida.task", "hida.node", "hida.buffer",
            "func.func", "builtin.module", "factor", "fashion", "task_name",
            "parallel_factor", "unroll_factors",
        ];
        let mut model: HashMap<&str, Symbol> = HashMap::new();
        for (pick, _) in picks {
            let text = names[pick];
            let sym = Symbol::intern(text);
            match model.get(text) {
                Some(&prev) => prop_assert_eq!(prev, sym),
                None => { model.insert(text, sym); }
            }
            prop_assert_eq!(sym.as_str(), text);
            prop_assert_eq!(Symbol::intern(text), sym);
        }
        // Distinct strings never collide on the same symbol.
        let distinct: HashSet<Symbol> = model.values().copied().collect();
        prop_assert_eq!(distinct.len(), model.len());
    }
}

/// The values `op` defines: its results, then the arguments of the blocks
/// of its regions.
fn defined_by(ctx: &Context, op: OpId) -> Vec<ValueId> {
    let mut values = ctx.op(op).results.to_vec();
    for &region in &ctx.op(op).regions {
        for &block in &ctx.region(region).blocks {
            values.extend_from_slice(&ctx.block(block).args);
        }
    }
    values
}

/// Builds a small two-task module exercising attrs of every shared payload
/// kind, name hints, regions and use lists.
fn sample_module(ctx: &mut Context) -> hida_ir_core::OpId {
    let module = ctx.create_module("clone_me");
    let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
    let mut b = OpBuilder::at_end_of(ctx, func);
    let c0 = b.create_constant_int(3, Type::i32());
    let c1 = b.create_constant_int(4, Type::i32());
    let (_, sums) = b.create("arith.addi", vec![c0, c1], vec![Type::i32()], vec![]);
    let (task, body, _) = b.create_with_body(
        "hida.task",
        vec![sums[0]],
        vec![Type::tensor(vec![8, 8], Type::f32())],
        vec![
            ("task_name", "t0".into()),
            ("factor", 4_i64.into()),
            ("factors", Attribute::from([2, 4])),
            ("scales", Attribute::from(vec![0.5, 2.0])),
            (
                "fashions",
                Attribute::StrArray(["cyclic".into(), "block".into()].into()),
            ),
            ("elem", Type::stream(Type::i1(), 3).into()),
        ],
    );
    OpBuilder::at_block_end(ctx, body).create("builtin.yield", vec![], vec![], vec![]);
    ctx.set_name_hint(c0, "lhs");
    ctx.set_name_hint(ctx.op(task).results[0], "tile");
    module
}

/// A cloned context is observationally identical — same printed IR, same
/// structural fingerprint — while carrying a fresh context identity, and the
/// clone is fully independent of the original afterwards.
#[test]
fn cloned_context_prints_and_fingerprints_identically() {
    let mut ctx = Context::new();
    let module = sample_module(&mut ctx);

    let copy = ctx.clone();
    assert_ne!(ctx.id(), copy.id(), "clone must mint a fresh context id");
    assert_eq!(print_op(&ctx, module), print_op(&copy, module));
    assert_eq!(
        structural_fingerprint(&ctx, module),
        structural_fingerprint(&copy, module)
    );

    // Mutating the original must not leak into the clone.
    let before = print_op(&copy, module);
    let body_region = ctx.op(module).regions[0];
    let block = ctx.region(body_region).blocks[0];
    ctx.build_op(block, "test.extra", vec![], vec![], vec![]);
    assert_eq!(print_op(&copy, module), before);
}

/// Erasing an op returns its slot to the free list and bumps the slot's
/// epoch; the next creation reuses it (same id, no arena growth) and bumps
/// the epoch again, so stale holders of the old id can detect the recycling.
#[test]
fn erase_then_create_reuses_the_slot_with_a_new_epoch() {
    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
    let mut b = OpBuilder::at_end_of(&mut ctx, func);
    let c = b.create_constant_int(1, Type::i32());
    let (victim, _) = b.create("arith.addi", vec![c, c], vec![Type::i32()], vec![]);

    let epoch_before = ctx.op_epoch(victim);
    let (ops_before, ..) = ctx.arena_sizes();
    ctx.erase_op(victim);
    assert!(!ctx.is_alive(victim));
    assert_eq!(ctx.free_op_slots(), 1);
    assert_eq!(
        ctx.op_epoch(victim),
        epoch_before + 1,
        "erase bumps the epoch"
    );

    let body = ctx.body_block(func);
    let (reborn, _) = ctx.build_op(body, "arith.muli", vec![c, c], vec![Type::i32()], vec![]);
    assert_eq!(reborn, victim, "freed slot is reused LIFO");
    assert_eq!(
        ctx.arena_sizes().0,
        ops_before,
        "reuse must not grow the arena"
    );
    assert_eq!(ctx.free_op_slots(), 0);
    assert!(ctx.is_alive(reborn));
    assert_eq!(
        ctx.op_epoch(reborn),
        epoch_before + 2,
        "reuse bumps the epoch again"
    );
}

/// What one context should answer about its op slots, kept beside it.
#[derive(Clone)]
struct LivenessModel {
    /// Per slot: live, and the epoch last read off the context.
    live: Vec<bool>,
    epochs: Vec<u32>,
    /// Per slot: the op whose body the slot's op was created in.
    parent: Vec<Option<OpId>>,
    /// Bodies to create into: owner, its epoch when the body was made, and
    /// the block. A body is usable while its owner is live in that epoch.
    bodies: Vec<(OpId, u32, BlockId)>,
    /// The module and the function: never erased.
    roots: usize,
}

impl LivenessModel {
    fn of(ctx: &Context, func: OpId) -> Self {
        let (slots, ..) = ctx.arena_sizes();
        LivenessModel {
            live: vec![true; slots],
            epochs: (0..slots)
                .map(|i| ctx.op_epoch(OpId::from_index(i)))
                .collect(),
            parent: vec![None; slots],
            bodies: vec![(func, ctx.op_epoch(func), ctx.body_block(func))],
            roots: slots,
        }
    }

    fn usable_bodies(&self) -> Vec<(OpId, BlockId)> {
        self.bodies
            .iter()
            .filter(|&&(owner, epoch, _)| {
                self.live[owner.index()] && self.epochs[owner.index()] == epoch
            })
            .map(|&(owner, _, block)| (owner, block))
            .collect()
    }

    fn create(&mut self, ctx: &mut Context, pick: usize, with_body: bool) {
        let bodies = self.usable_bodies();
        let (owner, block) = bodies[pick % bodies.len()];
        let (op, body) = if with_body {
            let (op, body, _) = OpBuilder::at_block_end(ctx, block).create_with_body(
                "test.region",
                vec![],
                vec![],
                vec![],
            );
            (op, Some(body))
        } else {
            (
                ctx.build_op(block, "test.leaf", vec![], vec![], vec![]).0,
                None,
            )
        };
        let slot = op.index();
        assert!(ctx.is_alive(op));
        if slot == self.live.len() {
            assert!(
                self.live.iter().all(|&live| live),
                "grew the arena past a free slot"
            );
            self.live.push(true);
            self.epochs.push(ctx.op_epoch(op));
            self.parent.push(Some(owner));
        } else {
            assert!(!self.live[slot], "created over the live op in slot {slot}");
            assert_ne!(ctx.op_epoch(op), self.epochs[slot], "reuse kept the epoch");
            self.live[slot] = true;
            self.epochs[slot] = ctx.op_epoch(op);
            self.parent[slot] = Some(owner);
        }
        if let Some(body) = body {
            self.bodies.push((op, self.epochs[slot], body));
        }
    }

    fn erase(&mut self, ctx: &mut Context, pick: usize) {
        let candidates: Vec<usize> = (self.roots..self.live.len())
            .filter(|&s| self.live[s])
            .collect();
        if candidates.is_empty() {
            return;
        }
        let victim = candidates[pick % candidates.len()];
        // The victim and every live op nested in it, at any depth.
        let mut dying = vec![victim];
        let mut grew = true;
        while grew {
            grew = false;
            for slot in self.roots..self.live.len() {
                let nested = self.parent[slot].is_some_and(|p| dying.contains(&p.index()));
                if self.live[slot] && nested && !dying.contains(&slot) {
                    dying.push(slot);
                    grew = true;
                }
            }
        }
        ctx.erase_op(OpId::from_index(victim));
        for slot in dying {
            let op = OpId::from_index(slot);
            assert!(!ctx.is_alive(op));
            assert_ne!(ctx.op_epoch(op), self.epochs[slot], "erase kept the epoch");
            self.live[slot] = false;
            self.epochs[slot] = ctx.op_epoch(op);
        }
    }

    fn check(&self, ctx: &Context) {
        assert_eq!(ctx.arena_sizes().0, self.live.len());
        for (slot, (&live, &epoch)) in self.live.iter().zip(&self.epochs).enumerate() {
            let op = OpId::from_index(slot);
            assert_eq!(ctx.is_alive(op), live, "liveness of slot {slot}");
            assert_eq!(ctx.op_epoch(op), epoch, "epoch of slot {slot}");
        }
        let live = self.live.iter().filter(|&&live| live).count();
        assert_eq!(ctx.num_live_ops(), live);
        assert_eq!(ctx.free_op_slots(), self.live.len() - live);
    }
}
