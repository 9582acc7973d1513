//! Property tests for the textual IR round trip: for any module we can build,
//! `parse(print(module))` must match the original by structural fingerprint
//! and re-print byte-identically — and feeding the parser damaged text must
//! produce positioned errors, never panics.

use hida_ir_core::printer::print_op;
use hida_ir_core::{
    parse_module, structural_fingerprint, Attribute, Context, OpBuilder, Operation, Type,
};
use proptest::prelude::*;

/// Test-local seeded generator. The proptest shim drives properties with
/// integer seeds; everything about one module derives from its seed.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

fn rand_type(g: &mut Gen, depth: usize) -> Type {
    match g.below(if depth == 0 { 6 } else { 9 }) {
        0 => Type::i1(),
        1 => Type::i32(),
        2 => Type::f32(),
        3 => Type::f64(),
        4 => Type::Index,
        5 => Type::Int(1 + g.below(128) as u32),
        6 => Type::memref(
            vec![1 + g.below(64) as i64, 1 + g.below(64) as i64],
            rand_type(g, 0),
        ),
        7 => Type::tensor(vec![1 + g.below(16) as i64], rand_type(g, 0)),
        _ => Type::stream(rand_type(g, 0), 1 + g.below(8) as i64),
    }
}

fn rand_attr(g: &mut Gen, depth: usize) -> Attribute {
    match g.below(if depth == 0 { 6 } else { 10 }) {
        0 => Attribute::Unit,
        1 => Attribute::Bool(g.chance(50)),
        2 => Attribute::Int(g.next() as i64),
        // Dyadic rationals print and re-parse exactly; shifted to exercise
        // both integral-looking and fractional values.
        3 => Attribute::Float((g.next() % 4096) as f64 / 8.0 - 200.0),
        4 => Attribute::from(format!("s{} v{}", g.below(100), g.below(100))),
        5 => Attribute::TypeAttr(rand_type(g, 1)),
        6 => Attribute::IntArray((0..g.below(4)).map(|_| g.next() as i64).collect()),
        7 => Attribute::FloatArray(
            (0..g.below(4))
                .map(|_| (g.next() % 64) as f64 / 4.0)
                .collect(),
        ),
        8 => Attribute::StrArray((0..g.below(4)).map(|i| format!("e{i}").into()).collect()),
        _ => Attribute::Array((0..g.below(3)).map(|_| rand_attr(g, 0)).collect()),
    }
}

/// Op-name pool. The parser re-derives the `isolated` flag from the op name,
/// so the generator must assign it the same way the real dialects do.
const ISOLATED_NAMES: &[&str] = &["func.func", "hida.schedule", "hida.node"];
const PLAIN_NAMES: &[&str] = &[
    "test.alpha",
    "test.beta",
    "arith.addf",
    "affine.for",
    "memref.alloc",
    "hida.buffer",
];

/// Name-hint pool; digit-tailed hints stress the printer's numbering-suffix
/// recovery in the parser.
const HINTS: &[&str] = &["x", "acc", "buf1", "t2", "a0", "value_10"];

fn emit_ops(ctx: &mut Context, g: &mut Gen, block: hida_ir_core::BlockId, depth: usize) {
    let count = 1 + g.below(4);
    for _ in 0..count {
        let isolated = depth < 2 && g.chance(30);
        let name = if isolated {
            ISOLATED_NAMES[g.below(ISOLATED_NAMES.len() as u64) as usize]
        } else {
            PLAIN_NAMES[g.below(PLAIN_NAMES.len() as u64) as usize]
        };
        let mut op = Operation::new(name);
        op.isolated = isolated;
        for k in 0..g.below(4) {
            op.set_attr(format!("k{k}"), rand_attr(g, 1));
        }
        // Operands: reference values already defined in this block.
        let scope: Vec<_> = ctx
            .block(block)
            .args
            .iter()
            .copied()
            .chain(
                ctx.block(block)
                    .ops
                    .iter()
                    .flat_map(|&o| ctx.op(o).results.iter().copied()),
            )
            .collect();
        if !scope.is_empty() {
            for _ in 0..g.below(3) {
                op.operands
                    .push(scope[g.below(scope.len() as u64) as usize]);
            }
        }
        let id = ctx.create_op(op);
        for _ in 0..g.below(3) {
            let ty = rand_type(g, 1);
            let vid = ctx.add_result(id, ty);
            if g.chance(50) {
                let hint = HINTS[g.below(HINTS.len() as u64) as usize];
                ctx.set_name_hint(vid, hint);
            }
        }
        ctx.append_op(block, id);
        // Nested regions (depth-limited); isolated ops get fresh scopes.
        if depth < 2 && g.chance(if isolated { 80 } else { 30 }) {
            let region = ctx.create_region(id);
            let inner = ctx.create_block(region);
            for _ in 0..g.below(3) {
                let ty = rand_type(g, 1);
                let vid = ctx.add_block_arg(inner, ty);
                if g.chance(50) {
                    let hint = HINTS[g.below(HINTS.len() as u64) as usize];
                    ctx.set_name_hint(vid, hint);
                }
            }
            emit_ops(ctx, g, inner, depth + 1);
        }
    }
}

fn rand_module(seed: u64) -> (Context, hida_ir_core::OpId) {
    let mut g = Gen::new(seed);
    let mut ctx = Context::new();
    let module = ctx.create_module("m");
    let body = ctx.body_block(module);
    emit_ops(&mut ctx, &mut g, body, 0);
    (ctx, module)
}

/// A small builder-made module: the same construction path the frontends use.
fn builder_module(seed: u64) -> (Context, hida_ir_core::OpId) {
    let mut g = Gen::new(seed);
    let mut ctx = Context::new();
    let module = ctx.create_module("built");
    let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
    let mut b = OpBuilder::at_end_of(&mut ctx, func);
    let mut prev = None;
    for _ in 0..1 + g.below(5) {
        let v = if g.chance(50) {
            b.create_constant_int(g.next() as i64, Type::i32())
        } else {
            b.create_constant_float((g.next() % 1024) as f64 / 16.0, Type::f32())
        };
        if let Some(p) = prev {
            let mut op = Operation::new("test.pair");
            op.operands = vec![p, v].into();
            let id = b.context().create_op(op);
            let body = b.context().body_block(func);
            b.context().append_op(body, id);
        }
        prev = Some(v);
    }
    (ctx, module)
}

fn assert_round_trips(ctx: &Context, module: hida_ir_core::OpId) {
    let text = print_op(ctx, module);
    let (parsed_ctx, parsed_module) = parse_module(&text)
        .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n--- module ---\n{text}"));
    prop_assert_eq!(
        structural_fingerprint(ctx, module),
        structural_fingerprint(&parsed_ctx, parsed_module),
        "fingerprint drift\n--- module ---\n{}",
        text
    );
    let reprinted = print_op(&parsed_ctx, parsed_module);
    prop_assert_eq!(text, reprinted);
}

proptest! {
    /// Randomly structured modules — every attribute kind, nested regions,
    /// isolated ops, digit-tailed name hints — survive print → parse → print.
    #[test]
    fn random_modules_round_trip(seed in 0u64..1_000_000) {
        let (ctx, module) = rand_module(seed);
        assert_round_trips(&ctx, module);
    }

    /// Modules built through `OpBuilder` (the frontend path) round trip too.
    #[test]
    fn builder_modules_round_trip(seed in 0u64..1_000_000) {
        let (ctx, module) = builder_module(seed);
        assert_round_trips(&ctx, module);
    }

    /// Truncating the text anywhere never panics the parser, and any error
    /// it reports points inside the text.
    #[test]
    fn truncated_text_gives_positioned_errors(seed in 0u64..1_000_000) {
        let (ctx, module) = rand_module(seed);
        let text = print_op(&ctx, module);
        let mut g = Gen::new(seed ^ 0xDEAD_BEEF);
        let cut = g.below(text.len() as u64) as usize;
        let prefix: String = text.chars().take(cut).collect();
        if let Err(e) = parse_module(&prefix) {
            let lines = prefix.lines().count().max(1);
            prop_assert!(e.line >= 1 && e.line <= lines + 1, "line {} of {}", e.line, lines);
            prop_assert!(e.column >= 1);
            prop_assert!(e.position <= prefix.len());
        }
    }

    /// Corrupting one character never panics; a reported error stays in range.
    #[test]
    fn corrupted_text_gives_positioned_errors(seed in 0u64..1_000_000) {
        let (ctx, module) = rand_module(seed);
        let text = print_op(&ctx, module);
        let mut g = Gen::new(seed ^ 0xC0FF_EE00);
        let at = g.below(text.len() as u64) as usize;
        let mut bytes = text.into_bytes();
        // '@' is outside every token class, so the damage is always visible
        // to the grammar (replacing whitespace with '@' included).
        if bytes[at].is_ascii() {
            bytes[at] = b'@';
        }
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        if let Err(e) = parse_module(&corrupted) {
            prop_assert!(e.line >= 1);
            prop_assert!(e.column >= 1);
            prop_assert!(e.position <= corrupted.len());
        }
    }
}
