//! Seeded differential fuzzing for the HIDA reproduction.
//!
//! Each case derives everything from one `u64` seed:
//!
//! 1. [`gen_workload`] builds a random affine dataflow function — a handful of
//!    `f32` matrices, per-buffer constant-fill init nests, and a chain of
//!    compute nests (matmul / element-wise scale / boundary stencil) wired so
//!    later nests consume earlier results,
//! 2. [`gen_pipeline`] assembles a random but registry-valid optimization
//!    pipeline (`construct,…,lower,…`),
//! 3. [`run_case`] drives the differential checks:
//!    * **round-trip**: `parse(print(module))` matches the original by
//!      structural fingerprint and re-prints byte-identically — both for the
//!      generated function and for the fully optimized design (which exercises
//!      `hida.schedule` / `hida.node` / `hida.buffer` through the parser),
//!    * **semantics oracle**: the functional interpreter produces the same
//!      buffer contents under the baseline `construct,lower` pipeline and the
//!      random optimized pipeline (run on the *parsed* copy of the module, so
//!      textual IR flows through the whole optimizer),
//!    * **interval model**: the timed simulator's steady-state initiation
//!      interval stays within a constant factor of the analytic estimate.
//!
//! The `hida-fuzz` binary runs batches of cases and dumps the offending
//! module as a `.hir` file when a case fails, so failures reproduce with
//! `hida-opt --input`.

use hida_dialects::loops::build_loop_nest;
use hida_dialects::memory::{build_alloc, build_load, build_store};
use hida_dialects::{arith, memory};
use hida_estimator::{DataflowEstimator, FpgaDevice};
use hida_ir_core::printer::print_op;
use hida_ir_core::{parse_module, structural_fingerprint, Context, OpBuilder, OpId, Type, ValueId};
use hida_opt::{registry, Pipeline};
use hida_sim::functional::Memory;
use hida_sim::{interpret_schedule, simulate_pipeline};
use std::collections::BTreeMap;

/// Deterministic splitmix64 generator — no external RNG crates, stable across
/// platforms, and every case is reproducible from its seed alone.
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Creates a generator for one case.
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit output (splitmix64 finalizer).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in the inclusive range `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.range(0, 99) < percent
    }

    /// Uniformly picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64 - 1) as usize]
    }
}

/// One generated buffer: its SSA value and its name (used to align memories
/// across independently compiled copies of the same module).
#[derive(Debug, Clone)]
struct Buffer {
    value: ValueId,
    name: String,
}

/// A generated workload: the module, its function, and a short human-readable
/// description of the nest chain (for failure reports).
#[derive(Debug)]
pub struct GeneratedWorkload {
    /// The `builtin.module` root.
    pub module: OpId,
    /// The `func.func` holding the nests.
    pub func: OpId,
    /// E.g. `"n=6 stages=[matmul(A,B->C), stencil(C->D)]"`.
    pub summary: String,
}

/// Builds a random affine dataflow function into a fresh module inside `ctx`.
///
/// Every buffer is written by a constant-fill init nest before any compute
/// nest reads it, so the zero-initialized functional interpreter produces
/// non-trivial values without external memory seeding. Compute nests chain:
/// each reads previously written buffers and writes a fresh one, giving the
/// dataflow constructor real producer/consumer edges to work with.
pub fn gen_workload(ctx: &mut Context, rng: &mut FuzzRng) -> GeneratedWorkload {
    let n = rng.range(4, 8) as i64;
    let module = ctx.create_module("fuzz");
    let func = OpBuilder::at_end_of(ctx, module).create_func("fuzz", vec![], vec![]);
    let body = ctx.body_block(func);

    // Draw the whole plan before emitting any IR: the construct pass keeps
    // allocations in the transparent context surrounding the dispatch, so all
    // allocs must precede the first loop nest (as the hand-written frontends
    // arrange them).
    let num_inputs = rng.range(2, 3) as usize;
    let input_fills: Vec<f64> = (0..num_inputs)
        .map(|k| 0.25 + 0.5 * k as f64 + 0.125 * rng.range(0, 4) as f64)
        .collect();
    let num_stages = rng.range(1, 3) as usize;
    // (kind, src index, second src index, scale) per stage; sources may be any
    // earlier buffer (inputs or prior stage results).
    let plan: Vec<(u64, usize, usize, f64)> = (0..num_stages)
        .map(|s| {
            let avail = (num_inputs + s) as u64;
            (
                rng.range(0, 2),
                rng.range(0, avail - 1) as usize,
                rng.range(0, avail - 1) as usize,
                0.5 + 0.25 * rng.range(0, 3) as f64,
            )
        })
        .collect();

    // Buffer names are single letters: hint digits never collide with the
    // printer's value-numbering suffix, keeping re-prints byte-identical.
    let names = ["A", "B", "C", "D", "E", "F", "G", "H"];
    let buffers: Vec<Buffer> = (0..num_inputs + num_stages)
        .map(|i| {
            let mut b = OpBuilder::at_block_end(ctx, body);
            let value = build_alloc(&mut b, Type::memref(vec![n, n], Type::f32()), names[i]);
            Buffer {
                value,
                name: names[i].to_string(),
            }
        })
        .collect();

    // Init nest: buf[i][j] = c over the full index space.
    let init = |ctx: &mut Context, buf: &Buffer, c: f64, tag: &str| {
        let (_, ivs, inner) = build_loop_nest(
            ctx,
            body,
            &[(0, n, &format!("{tag}_i")), (0, n, &format!("{tag}_j"))],
        );
        let mut b = OpBuilder::at_block_end(ctx, inner);
        let v = b.create_constant_float(c, Type::f32());
        build_store(&mut b, v, buf.value, &[ivs[0], ivs[1]]);
    };

    for (buf, &fill) in buffers.iter().zip(&input_fills) {
        init(ctx, buf, fill, &format!("init{}", buf.name.to_lowercase()));
    }

    let mut stages: Vec<String> = Vec::new();
    for (s, &(kind, src_a, src_b, scale)) in plan.iter().enumerate() {
        let dst = buffers[num_inputs + s].clone();
        let tag = format!("s{s}");
        match kind {
            // matmul: dst[i][j] += lhs[i][k] * rhs[k][j]; dst pre-filled so the
            // accumulation starts from a known constant.
            0 => {
                let lhs = buffers[src_a].clone();
                let rhs = buffers[src_b].clone();
                init(ctx, &dst, 0.0, &format!("init{}", dst.name.to_lowercase()));
                let (_, ivs, inner) = build_loop_nest(
                    ctx,
                    body,
                    &[
                        (0, n, &format!("{tag}_i")),
                        (0, n, &format!("{tag}_j")),
                        (0, n, &format!("{tag}_k")),
                    ],
                );
                let mut b = OpBuilder::at_block_end(ctx, inner);
                let x = build_load(&mut b, lhs.value, &[ivs[0], ivs[2]]);
                let y = build_load(&mut b, rhs.value, &[ivs[2], ivs[1]]);
                let prod = arith::build_binary(&mut b, arith::MULF, x, y);
                let acc = build_load(&mut b, dst.value, &[ivs[0], ivs[1]]);
                let sum = arith::build_binary(&mut b, arith::ADDF, acc, prod);
                build_store(&mut b, sum, dst.value, &[ivs[0], ivs[1]]);
                stages.push(format!("matmul({},{}->{})", lhs.name, rhs.name, dst.name));
            }
            // element-wise scale: dst[i][j] = src[i][j] * c.
            1 => {
                let src = buffers[src_a].clone();
                let (_, ivs, inner) = build_loop_nest(
                    ctx,
                    body,
                    &[(0, n, &format!("{tag}_i")), (0, n, &format!("{tag}_j"))],
                );
                let mut b = OpBuilder::at_block_end(ctx, inner);
                let x = build_load(&mut b, src.value, &[ivs[0], ivs[1]]);
                let c = b.create_constant_float(scale, Type::f32());
                let y = arith::build_binary(&mut b, arith::MULF, x, c);
                build_store(&mut b, y, dst.value, &[ivs[0], ivs[1]]);
                stages.push(format!("scale({}->{})", src.name, dst.name));
            }
            // boundary stencil: the interior of dst accumulates a combination
            // of src with a strided row (via affine.apply); the untouched
            // boundary keeps dst's init fill, making the output
            // index-sensitive. The accumulation load of dst is load-bearing:
            // multi-producer elimination only copies the original buffer into
            // a duplicate when the later producer *reads* it, so a partial
            // writer must be a read-modify-write to stay within that contract.
            _ => {
                let src = buffers[src_a].clone();
                init(
                    ctx,
                    &dst,
                    0.125,
                    &format!("init{}", dst.name.to_lowercase()),
                );
                let (_, ivs, inner) = build_loop_nest(
                    ctx,
                    body,
                    &[
                        (1, n - 1, &format!("{tag}_i")),
                        (1, n - 1, &format!("{tag}_j")),
                    ],
                );
                let mut b = OpBuilder::at_block_end(ctx, inner);
                let shifted = memory::build_apply(&mut b, ivs[0], 1, -1);
                let center = build_load(&mut b, src.value, &[ivs[0], ivs[1]]);
                let up = build_load(&mut b, src.value, &[shifted, ivs[1]]);
                let s = arith::build_binary(&mut b, arith::ADDF, center, up);
                let c = b.create_constant_float(0.2, Type::f32());
                let r = arith::build_binary(&mut b, arith::MULF, s, c);
                let prev = build_load(&mut b, dst.value, &[ivs[0], ivs[1]]);
                let acc = arith::build_binary(&mut b, arith::ADDF, prev, r);
                build_store(&mut b, acc, dst.value, &[ivs[0], ivs[1]]);
                stages.push(format!("stencil({}->{})", src.name, dst.name));
            }
        }
    }

    GeneratedWorkload {
        module,
        func,
        summary: format!("n={n} stages=[{}]", stages.join(", ")),
    }
}

/// Assembles a random registry-valid pipeline string. Always starts with
/// `construct` and passes through `lower`; the optional passes and their
/// options are drawn from the registry's documented surface.
pub fn gen_pipeline(rng: &mut FuzzRng) -> String {
    let mut passes = vec!["construct".to_string()];
    if rng.chance(40) {
        passes.push("fusion".to_string());
    }
    passes.push("lower".to_string());
    if rng.chance(40) {
        passes.push("multi-producer-elim".to_string());
    }
    if rng.chance(50) {
        let factor = *rng.pick(&[2_u64, 4]);
        passes.push(format!("tiling{{factor={factor}}}"));
    }
    if rng.chance(40) {
        passes.push("balance".to_string());
    }
    if rng.chance(60) {
        let max = *rng.pick(&[2_u64, 4, 8]);
        let mode = *rng.pick(&["IA+CA", "IA", "CA", "Naive"]);
        let device = *rng.pick(&["zu3eg", "pynq-z2", "vu9p-slr"]);
        passes.push(format!(
            "parallelize{{max-factor={max},mode={mode},device={device}}}"
        ));
    }
    passes.join(",")
}

/// What a passing case produced — returned so callers can log coverage.
#[derive(Debug)]
pub struct CaseReport {
    /// The randomly chosen pipeline text.
    pub pipeline: String,
    /// The workload summary (`gen_workload`'s description).
    pub workload: String,
    /// Number of dataflow nodes in the optimized design.
    pub nodes: usize,
}

/// A failing case, with everything needed to reproduce it offline.
#[derive(Debug)]
pub struct CaseFailure {
    /// The seed that produced the failure.
    pub seed: u64,
    /// Which check failed and how.
    pub reason: String,
    /// The randomly chosen pipeline text (empty if generation itself failed).
    pub pipeline: String,
    /// Printed textual IR of the generated module — dump as `.hir` and replay
    /// with `hida-opt --input`.
    pub module_text: String,
}

/// Interprets `schedule` on a zero-initialized memory and returns buffer
/// contents keyed by buffer name.
///
/// Multi-producer elimination renames each later producer's target to
/// `<name>_dup` (chaining for further producers), and the final value of the
/// original buffer lives in the most-duplicated copy. Keys are therefore the
/// base name with `_dup` suffixes stripped, keeping the deepest duplicate.
fn interpreted_contents(
    ctx: &Context,
    schedule: hida_dataflow_ir::structural::ScheduleOp,
) -> BTreeMap<String, Vec<f64>> {
    let mut memory = Memory::new();
    interpret_schedule(ctx, schedule, &mut memory);
    let mut out: BTreeMap<String, (usize, Vec<f64>)> = BTreeMap::new();
    for buf in schedule.internal_buffers(ctx) {
        let Some(data) = memory.contents(buf.value(ctx)) else {
            continue;
        };
        let mut base = buf.name(ctx);
        let mut dups = 0;
        while let Some(stripped) = base.strip_suffix("_dup") {
            base = stripped.to_string();
            dups += 1;
        }
        match out.get(&base) {
            Some(&(best, _)) if best >= dups => {}
            _ => {
                out.insert(base, (dups, data.to_vec()));
            }
        }
    }
    out.into_iter().map(|(k, (_, v))| (k, v)).collect()
}

/// Relative-tolerance comparison: optimization may reassociate float
/// accumulations, so exact equality is too strict, but anything beyond a
/// hair's width is a real divergence at these magnitudes.
fn numbers_match(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Runs one differential case end to end. See the module docs for the checks.
pub fn run_case(seed: u64) -> Result<CaseReport, CaseFailure> {
    let mut rng = FuzzRng::new(seed);

    // 1. Generate the workload and pick a pipeline.
    let mut ctx = Context::new();
    let workload = gen_workload(&mut ctx, &mut rng);
    let pipeline_text = gen_pipeline(&mut rng);
    let text = print_op(&ctx, workload.module);
    let fail = |reason: String, pipeline: &str, text: &str| CaseFailure {
        seed,
        reason,
        pipeline: pipeline.to_string(),
        module_text: text.to_string(),
    };

    // 2. Round-trip: parse what we printed, compare fingerprints, re-print.
    let (mut parsed_ctx, parsed_module) = parse_module(&text).map_err(|e| {
        fail(
            format!("round-trip parse failed: {e}"),
            &pipeline_text,
            &text,
        )
    })?;
    let original_fp = structural_fingerprint(&ctx, workload.module);
    let parsed_fp = structural_fingerprint(&parsed_ctx, parsed_module);
    if original_fp != parsed_fp {
        return Err(fail(
            "round-trip fingerprint mismatch on the generated module".to_string(),
            &pipeline_text,
            &text,
        ));
    }
    let reprinted = print_op(&parsed_ctx, parsed_module);
    if reprinted != text {
        return Err(fail(
            "round-trip re-print is not byte-identical".to_string(),
            &pipeline_text,
            &text,
        ));
    }

    // 3. Semantics oracle: baseline construct,lower on the original context…
    let reg = registry();
    let mut baseline = Pipeline::parse(&reg, "construct,lower")
        .map_err(|e| fail(format!("baseline pipeline: {e}"), &pipeline_text, &text))?;
    let baseline_schedule = baseline
        .run(&mut ctx, workload.func)
        .map_err(|e| fail(format!("baseline run failed: {e}"), &pipeline_text, &text))?;
    let expected = interpreted_contents(&ctx, baseline_schedule);

    // …vs the random pipeline on the *parsed* copy, so textual IR flows
    // through the full optimizer exactly like `hida-opt --input` does.
    let parsed_func = parsed_ctx
        .body_ops(parsed_module)
        .into_iter()
        .find(|&op| parsed_ctx.op(op).is(hida_ir_core::op_names::FUNC))
        .ok_or_else(|| {
            fail(
                "parsed module lost its func".to_string(),
                &pipeline_text,
                &text,
            )
        })?;
    let mut optimized = Pipeline::parse(&reg, &pipeline_text)
        .map_err(|e| fail(format!("generated pipeline: {e}"), &pipeline_text, &text))?;
    let schedule = optimized
        .run(&mut parsed_ctx, parsed_func)
        .map_err(|e| fail(format!("optimized run failed: {e}"), &pipeline_text, &text))?;
    let actual = interpreted_contents(&parsed_ctx, schedule);

    let mut compared = 0_usize;
    let mut nonzero = false;
    for (name, expected_data) in &expected {
        let Some(actual_data) = actual.get(name) else {
            continue;
        };
        compared += 1;
        if expected_data.len() != actual_data.len() {
            return Err(fail(
                format!(
                    "oracle: buffer '{name}' size {} vs {} after {pipeline_text}",
                    expected_data.len(),
                    actual_data.len()
                ),
                &pipeline_text,
                &text,
            ));
        }
        for (i, (&e, &a)) in expected_data.iter().zip(actual_data).enumerate() {
            nonzero |= e != 0.0;
            if !numbers_match(e, a) {
                return Err(fail(
                    format!(
                        "oracle: buffer '{name}'[{i}] diverges: baseline {e} vs {a} \
                         after {pipeline_text} ({})",
                        workload.summary
                    ),
                    &pipeline_text,
                    &text,
                ));
            }
        }
    }
    if compared == 0 || !nonzero {
        return Err(fail(
            format!(
                "oracle is vacuous: {compared} comparable buffers, nonzero={nonzero} \
                 ({})",
                workload.summary
            ),
            &pipeline_text,
            &text,
        ));
    }

    // 4. Round-trip the *optimized* design: schedule/node/buffer ops included.
    let opt_text = print_op(&parsed_ctx, parsed_module);
    let (opt_ctx, opt_module) = parse_module(&opt_text).map_err(|e| {
        fail(
            format!("optimized design does not re-parse: {e}"),
            &pipeline_text,
            &opt_text,
        )
    })?;
    if structural_fingerprint(&parsed_ctx, parsed_module)
        != structural_fingerprint(&opt_ctx, opt_module)
    {
        return Err(fail(
            "round-trip fingerprint mismatch on the optimized design".to_string(),
            &pipeline_text,
            &opt_text,
        ));
    }

    // 5. Interval model: timed simulation vs analytic estimate.
    let estimator = DataflowEstimator::new(FpgaDevice::zu3eg());
    let analytic = estimator.estimate(&parsed_ctx, schedule.id(), true);
    let trace = simulate_pipeline(&parsed_ctx, schedule, &estimator, 8, true);
    if analytic.interval_cycles > 0 && trace.steady_interval > 0 {
        let ratio = trace.steady_interval as f64 / analytic.interval_cycles as f64;
        if !(0.3..=3.0).contains(&ratio) {
            return Err(fail(
                format!(
                    "interval model: simulated steady interval {} vs analytic {} \
                     (ratio {ratio:.3}) after {pipeline_text}",
                    trace.steady_interval, analytic.interval_cycles
                ),
                &pipeline_text,
                &text,
            ));
        }
    }

    Ok(CaseReport {
        pipeline: pipeline_text,
        workload: workload.summary,
        nodes: schedule.nodes(&parsed_ctx).len(),
    })
}

/// Chaos-mode differential case: deterministically (from the seed) decides
/// whether to arm an injected pass panic around the optimized pipeline run.
///
/// * **Armed** (~half the seeds): the pipeline must fail with a *structured*
///   error that names the injected fault — a success is a vacuous oracle
///   (the injection site never fired) and an escaping panic is an isolation
///   hole; both are reported as failures.
/// * **Unarmed**: the case degrades to the plain [`run_case`] differential
///   checks, so a chaos batch still exercises the fault-free oracle.
///
/// The chaos decision comes from a decoupled RNG stream, so the generated
/// workload and pipeline are byte-identical to `run_case(seed)`'s.
pub fn run_case_chaos(seed: u64) -> Result<CaseReport, CaseFailure> {
    hida_ir_core::fault::silence_expected_panics();
    let mut chaos = FuzzRng::new(seed ^ 0x00C4_A05C_4A05_C4A0);
    if !chaos.chance(50) {
        return run_case(seed);
    }

    let mut rng = FuzzRng::new(seed);
    let mut ctx = Context::new();
    let workload = gen_workload(&mut ctx, &mut rng);
    let pipeline_text = gen_pipeline(&mut rng);
    let text = print_op(&ctx, workload.module);
    let fail = |reason: String| CaseFailure {
        seed,
        reason,
        pipeline: pipeline_text.clone(),
        module_text: text.clone(),
    };

    let reg = registry();
    let mut pipeline = Pipeline::parse(&reg, &pipeline_text)
        .map_err(|e| fail(format!("generated pipeline: {e}")))?;
    let outcome = {
        let _guard = hida_ir_core::fault::install_point(
            hida_ir_core::CancelToken::new(),
            Some(hida_ir_core::PointFaults {
                pass_panic: true,
                ..Default::default()
            }),
        );
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline.run(&mut ctx, workload.func)
        }))
    };
    match outcome {
        Err(_) => Err(fail(
            "chaos: injected pass panic escaped the pass runner".to_string(),
        )),
        Ok(Ok(_)) => Err(fail(
            "chaos: armed a pass panic but the pipeline succeeded (vacuous injection)".to_string(),
        )),
        Ok(Err(e)) => {
            let message = e.to_string();
            if !message.contains("injected fault") {
                return Err(fail(format!(
                    "chaos: armed a pass panic but the failure does not name it: {message}"
                )));
            }
            Ok(CaseReport {
                pipeline: pipeline_text,
                workload: workload.summary,
                nodes: 0,
            })
        }
    }
}

/// Builds an attention-style kernel (scores = Q·Kᵀ scaled, out = scores·V)
/// into a fresh module. Used for the `examples/attention.hir` golden file and
/// as a fixed non-random workload in the fuzz smoke tests.
pub fn build_attention(ctx: &mut Context, n: i64) -> (OpId, OpId) {
    let module = ctx.create_module("attention");
    let func = OpBuilder::at_end_of(ctx, module).create_func("attention", vec![], vec![]);
    let body = ctx.body_block(func);

    let (q, k, v, scores, out) = {
        let mut b = OpBuilder::at_block_end(ctx, body);
        let ty = || Type::memref(vec![n, n], Type::f32());
        let q = build_alloc(&mut b, ty(), "Q");
        let k = build_alloc(&mut b, ty(), "K");
        let v = build_alloc(&mut b, ty(), "V");
        let scores = build_alloc(&mut b, ty(), "S");
        let out = build_alloc(&mut b, ty(), "O");
        (q, k, v, scores, out)
    };

    // Fill Q, K, V with distinct constants (stand-ins for loaded activations).
    for (buf, fill, tag) in [(q, 0.5, "initq"), (k, 0.25, "initk"), (v, 1.5, "initv")] {
        let (_, ivs, inner) = build_loop_nest(
            ctx,
            body,
            &[(0, n, &format!("{tag}_i")), (0, n, &format!("{tag}_j"))],
        );
        let mut b = OpBuilder::at_block_end(ctx, inner);
        let c = b.create_constant_float(fill, Type::f32());
        build_store(&mut b, c, buf, &[ivs[0], ivs[1]]);
    }

    // scores[i][j] = sum_k Q[i][k] * K[j][k], scaled by 1/n (softmax stand-in).
    {
        let (_, ivs, inner) =
            build_loop_nest(ctx, body, &[(0, n, "qk_i"), (0, n, "qk_j"), (0, n, "qk_k")]);
        let mut b = OpBuilder::at_block_end(ctx, inner);
        let x = build_load(&mut b, q, &[ivs[0], ivs[2]]);
        let y = build_load(&mut b, k, &[ivs[1], ivs[2]]);
        let prod = arith::build_binary(&mut b, arith::MULF, x, y);
        let scale = b.create_constant_float(1.0 / n as f64, Type::f32());
        let scaled = arith::build_binary(&mut b, arith::MULF, prod, scale);
        let acc = build_load(&mut b, scores, &[ivs[0], ivs[1]]);
        let sum = arith::build_binary(&mut b, arith::ADDF, acc, scaled);
        build_store(&mut b, sum, scores, &[ivs[0], ivs[1]]);
    }

    // out[i][j] = sum_k scores[i][k] * V[k][j].
    {
        let (_, ivs, inner) =
            build_loop_nest(ctx, body, &[(0, n, "av_i"), (0, n, "av_j"), (0, n, "av_k")]);
        let mut b = OpBuilder::at_block_end(ctx, inner);
        let s = build_load(&mut b, scores, &[ivs[0], ivs[2]]);
        let x = build_load(&mut b, v, &[ivs[2], ivs[1]]);
        let prod = arith::build_binary(&mut b, arith::MULF, s, x);
        let acc = build_load(&mut b, out, &[ivs[0], ivs[1]]);
        let sum = arith::build_binary(&mut b, arith::ADDF, acc, prod);
        build_store(&mut b, sum, out, &[ivs[0], ivs[1]]);
    }

    (module, func)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut c1 = Context::new();
        let mut c2 = Context::new();
        let w1 = gen_workload(&mut c1, &mut FuzzRng::new(7));
        let w2 = gen_workload(&mut c2, &mut FuzzRng::new(7));
        assert_eq!(w1.summary, w2.summary);
        assert_eq!(print_op(&c1, w1.module), print_op(&c2, w2.module));
        let mut c3 = Context::new();
        let w3 = gen_workload(&mut c3, &mut FuzzRng::new(8));
        assert!(
            w1.summary != w3.summary || print_op(&c1, w1.module) != print_op(&c3, w3.module),
            "different seeds should produce different workloads"
        );
    }

    #[test]
    fn generated_pipelines_are_registry_valid() {
        let reg = registry();
        for seed in 0..64 {
            let mut rng = FuzzRng::new(seed);
            let text = gen_pipeline(&mut rng);
            Pipeline::parse(&reg, &text)
                .unwrap_or_else(|e| panic!("seed {seed}: invalid pipeline '{text}': {e}"));
        }
    }

    #[test]
    fn generated_modules_pass_the_verifier() {
        for seed in 0..8 {
            let mut ctx = Context::new();
            let w = gen_workload(&mut ctx, &mut FuzzRng::new(seed));
            hida_ir_core::verifier::verify(&ctx, w.module)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn differential_smoke_over_fixed_seeds() {
        // Small in-tree smoke; the CI fuzz stage runs 200 cases via the binary.
        for seed in 0..10 {
            if let Err(f) = run_case(seed) {
                panic!("seed {seed} failed: {}\n{}", f.reason, f.module_text);
            }
        }
    }

    #[test]
    fn chaos_smoke_isolates_every_injected_panic() {
        let mut armed = 0;
        for seed in 0..10 {
            if let Err(f) = run_case_chaos(seed) {
                panic!("chaos seed {seed} failed: {}", f.reason);
            }
            let mut chaos = FuzzRng::new(seed ^ 0x00C4_A05C_4A05_C4A0);
            if chaos.chance(50) {
                armed += 1;
            }
        }
        assert!(
            armed > 0,
            "no seed in 0..10 armed a fault — widen the range"
        );
    }

    #[test]
    fn attention_module_compiles_and_round_trips() {
        let mut ctx = Context::new();
        let (module, func) = build_attention(&mut ctx, 8);
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        let text = print_op(&ctx, module);
        let (pctx, pmodule) = parse_module(&text).unwrap();
        assert_eq!(
            structural_fingerprint(&ctx, module),
            structural_fingerprint(&pctx, pmodule)
        );
        assert_eq!(print_op(&pctx, pmodule), text);
        let reg = registry();
        let mut pipeline = Pipeline::parse(&reg, "construct,lower").unwrap();
        let schedule = pipeline.run(&mut ctx, func).unwrap();
        let contents = interpreted_contents(&ctx, schedule);
        // QKᵀ of constant fills: scores = n · 0.5 · 0.25 / n = 0.125, and
        // out = n · 0.125 · 1.5 = 0.1875 n.
        let out = &contents["O"];
        assert!(out.iter().all(|&x| numbers_match(x, 0.1875 * 8.0)));
    }
}
