//! Property tests for the dense side-table containers, the inline id list and
//! the intern table: parity with the `std` containers they replaced, plus
//! whole-context clone fidelity — a clone and its original share payloads and
//! never show each other's edits — and free-list slot reuse through the
//! public `Context` API.

// The std hash containers ARE the reference model here, so the crate-wide
// dense-table lint does not apply.
#![allow(clippy::disallowed_types)]

use hida_ir_core::fingerprint::structural_fingerprint;
use hida_ir_core::printer::print_op;
use hida_ir_core::storage::{EntityMap, EntitySet, IdList};
use hida_ir_core::walk::collect_preorder;
use hida_ir_core::{Attribute, Context, OpBuilder, OpId, Symbol, Type, ValueId};
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

    /// `EntitySet` behaves exactly like `HashSet<usize>` under a random
    /// interleaving of insert / remove / contains.
    #[test]
    fn entity_set_matches_hash_set_model(
        ops in prop::collection::vec((0_u8..3, 0_usize..200), 1..64),
    ) {
        let mut dense: EntitySet<ValueId> = EntitySet::new();
        let mut model: HashSet<usize> = HashSet::new();
        for (kind, index) in ops {
            let id = ValueId::from_index(index);
            match kind {
                0 => prop_assert_eq!(dense.insert(id), model.insert(index)),
                1 => prop_assert_eq!(dense.remove(id), model.remove(&index)),
                _ => prop_assert_eq!(dense.contains(id), model.contains(&index)),
            }
            prop_assert_eq!(dense.len(), model.len());
        }
        let mut expected: Vec<usize> = model.into_iter().collect();
        expected.sort_unstable();
        let got: Vec<usize> = dense.iter().map(|id: ValueId| id.index()).collect();
        prop_assert_eq!(got, expected);
    }

    /// `IdList` behaves exactly like `Vec` under a random interleaving of
    /// push / insert / remove / retain — across the inline capacity in
    /// both directions — in content, order, equality and what its
    /// constructors build.
    #[test]
    fn id_list_matches_vec_model(
        ops in prop::collection::vec((0_u8..10, 0_usize..64, 0_usize..1000), 1..64),
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
            let values: Vec<ValueId> = (0..edited.arena_sizes().3)
                .map(ValueId::from_index)
                .filter(|&v| edited.is_value_alive(v))
                .collect();
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
        false,
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

/// Erasing an op returns its slot to the free list; the next creation reuses
/// it (same id, no arena growth) and bumps the slot's epoch so stale holders
/// of the old id can detect the recycling.
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
        epoch_before + 1,
        "the reused slot keeps its bumped epoch until the next erase"
    );
}
