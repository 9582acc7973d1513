//! Build a custom multi-stage kernel directly against the IR API (the "HLS C++
//! input" path of Figure 3), run it through HIDA-OPT, check its functional
//! behaviour with the dataflow interpreter, and emit HLS C++.
//!
//! The kernel is a two-stage pipeline: `B[i] = A[i] * 3` followed by
//! `C[i] = B[i] + 1`, which HIDA turns into two dataflow nodes communicating
//! through a ping-pong buffer.
//!
//! Run with `cargo run --example custom_kernel`.

use hida::dialects::{arith, loops, memory};
use hida::ir::{Context, OpBuilder, Type};
use hida::sim::functional::{interpret_schedule, Memory};
use hida::{Compiler, FpgaDevice, HidaOptions};

fn main() {
    const N: i64 = 256;
    let mut ctx = Context::new();
    let module = ctx.create_module("custom");
    let func =
        OpBuilder::at_end_of(&mut ctx, module).create_func("scale_then_offset", vec![], vec![]);
    let body = ctx.body_block(func);

    // Arrays A, B, C.
    let (a, b, c) = {
        let mut bld = OpBuilder::at_block_end(&mut ctx, body);
        let a = memory::build_alloc(&mut bld, Type::memref(vec![N], Type::f32()), "A");
        let b = memory::build_alloc(&mut bld, Type::memref(vec![N], Type::f32()), "B");
        let c = memory::build_alloc(&mut bld, Type::memref(vec![N], Type::f32()), "C");
        (a, b, c)
    };
    // Stage 1: B[i] = A[i] * 3.
    let (_, ivs, inner) = loops::build_loop_nest(&mut ctx, body, &[(0, N, "i")]);
    {
        let mut bld = OpBuilder::at_block_end(&mut ctx, inner);
        let x = memory::build_load(&mut bld, a, &[ivs[0]]);
        let three = bld.create_constant_float(3.0, Type::f32());
        let scaled = arith::build_binary(&mut bld, arith::MULF, x, three);
        memory::build_store(&mut bld, scaled, b, &[ivs[0]]);
    }
    // Stage 2: C[i] = B[i] + 1.
    let (_, ivs, inner) = loops::build_loop_nest(&mut ctx, body, &[(0, N, "i")]);
    {
        let mut bld = OpBuilder::at_block_end(&mut ctx, inner);
        let x = memory::build_load(&mut bld, b, &[ivs[0]]);
        let one = bld.create_constant_float(1.0, Type::f32());
        let sum = arith::build_binary(&mut bld, arith::ADDF, x, one);
        memory::build_store(&mut bld, sum, c, &[ivs[0]]);
    }

    // Compile with HIDA.
    let compiler = Compiler::new(HidaOptions {
        max_parallel_factor: 8,
        tile_size: None,
        device: FpgaDevice::zu3eg(),
        ..HidaOptions::polybench()
    });
    let lowered = compiler
        .lower_func(ctx, module, func)
        .map_err(|failure| failure.error)
        .expect("pass pipeline");
    let result = compiler.finish(lowered).expect("estimation + emission");

    println!("== Custom two-stage kernel ==");
    println!(
        "dataflow nodes : {}",
        result.schedule.nodes(&result.ctx).len()
    );
    println!(
        "throughput     : {:.1} samples/s",
        result.estimate.throughput()
    );

    // Functional check with the interpreter: every C element must be 0*3+1 = 1.
    let mut memory_state = Memory::new();
    interpret_schedule(&result.ctx, result.schedule, &mut memory_state);
    let c_buffer = result
        .schedule
        .internal_buffers(&result.ctx)
        .into_iter()
        .find(|buf| buf.name(&result.ctx) == "C")
        .expect("C buffer");
    let contents = memory_state.contents(c_buffer.value(&result.ctx)).unwrap();
    assert!(contents.iter().all(|&v| (v - 1.0).abs() < 1e-9));
    println!("functional check: C[0..{N}] == 1.0  ✓");

    println!("\n== Generated HLS C++ (top function) ==");
    for line in result
        .hls_cpp
        .lines()
        .skip_while(|l| !l.contains("_top()"))
        .take(15)
    {
        println!("{line}");
    }
}
