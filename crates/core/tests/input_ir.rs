//! `--input <file.hir>` integration: the golden example files stay in sync
//! with the builders that generated them, a textual-IR compilation produces
//! the same QoR as the equivalent builder workload, and the `--input` /
//! `--emit-ir` error paths report positioned, actionable messages.

use std::path::PathBuf;
use std::process::Command;

use hida::{build_workload, PolybenchKernel, Workload};
use hida_ir_core::printer::print_op;
use hida_ir_core::Context;

const BIN: &str = env!("CARGO_BIN_EXE_hida-opt");

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
}

fn tmpfile(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write tmpfile");
    path
}

fn run_opt(args: &[&str]) -> std::process::Output {
    Command::new(BIN).args(args).output().expect("run hida-opt")
}

/// Stdout with the source-dependent `workload:`/`emitted IR:` report lines
/// removed — everything else must be identical across equivalent sources.
fn qor_portion(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.starts_with("workload:") && !l.starts_with("emitted IR:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn two_mm_golden_file_matches_the_builder() {
    let mut ctx = Context::new();
    let (module, _func) =
        build_workload(&mut ctx, Workload::Polybench(PolybenchKernel::TwoMm)).unwrap();
    let printed = print_op(&ctx, module);
    let golden = std::fs::read_to_string(example("two_mm.hir")).expect("read examples/two_mm.hir");
    assert_eq!(
        printed, golden,
        "examples/two_mm.hir is stale; regenerate with \
         `hida-opt --workload two_mm --no-timing --emit-ir examples/two_mm.hir`"
    );
}

#[test]
fn attention_golden_file_matches_the_builder() {
    let mut ctx = Context::new();
    let (module, _func) = hida_fuzz::build_attention(&mut ctx, 16);
    let printed = print_op(&ctx, module);
    let golden =
        std::fs::read_to_string(example("attention.hir")).expect("read examples/attention.hir");
    assert_eq!(
        printed, golden,
        "examples/attention.hir is stale; regenerate from hida_fuzz::build_attention(n=16)"
    );
}

#[test]
fn textual_input_matches_builder_qor_byte_for_byte() {
    let input = example("two_mm.hir");
    let from_builder = run_opt(&["--workload", "two_mm", "--no-timing"]);
    let from_text = run_opt(&["--input", input.to_str().unwrap(), "--no-timing"]);
    assert!(from_builder.status.success());
    assert!(
        from_text.status.success(),
        "--input failed: {}",
        String::from_utf8_lossy(&from_text.stderr)
    );
    assert_eq!(
        qor_portion(&from_builder.stdout),
        qor_portion(&from_text.stdout),
        "textual IR and builder QoR diverged"
    );
}

#[test]
fn emit_ir_round_trips_through_input() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("two_mm_reemit.hir");
    let input = example("two_mm.hir");
    let output = run_opt(&[
        "--input",
        input.to_str().unwrap(),
        "--no-timing",
        "--emit-ir",
        out.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let original = std::fs::read_to_string(&input).unwrap();
    let reemitted = std::fs::read_to_string(&out).unwrap();
    assert_eq!(
        original, reemitted,
        "--emit-ir re-emit is not byte-identical"
    );
}

#[test]
fn attention_compiles_with_a_stable_qor_snapshot() {
    let input = example("attention.hir");
    let output = run_opt(&["--input", input.to_str().unwrap(), "--no-timing"]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // QoR snapshot for the attention kernel on the default device; update
    // deliberately when the estimator or default pipeline changes.
    for expected in [
        "workload: attention (textual IR)",
        "# Schedule (3 nodes)",
        "buffer S                      depth 2   kind Bram      partition [4, 8] (32 banks)",
        "throughput: 259403.372 samples/s (dataflow) vs 168634.064 samples/s (sequential)",
        "resources:  DSP 336 / 2280, BRAM-18K 16 / 1440, LUT 63952 / 394000",
    ] {
        assert!(
            expected.is_empty() || stdout.contains(expected),
            "missing {expected:?} in:\n{stdout}"
        );
    }
}

#[test]
fn input_errors_are_positioned_and_actionable() {
    // Missing file.
    let output = run_opt(&["--input", "/nonexistent/kernel.hir", "--no-timing"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--input"),
        "missing flag name in:\n{stderr}"
    );

    // Syntax error: the message carries line and column before any compilation.
    let bad = tmpfile(
        "bad_syntax.hir",
        "\"builtin.module\"() {sym_name = \"m\"}\n{\n  \"func.func\"() {x = @}\n}\n",
    );
    let output = run_opt(&["--input", bad.to_str().unwrap(), "--no-timing"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("line 3") && stderr.contains("column"),
        "missing position in:\n{stderr}"
    );

    // A well-formed module with nothing to compile.
    let empty = tmpfile(
        "no_func.hir",
        "\"builtin.module\"() {sym_name = \"m\"}\n{\n}\n",
    );
    let output = run_opt(&["--input", empty.to_str().unwrap(), "--no-timing"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("func.func"), "unexpected error:\n{stderr}");
}

#[test]
fn input_flag_exclusivity_is_enforced() {
    let input = example("two_mm.hir");
    let output = run_opt(&[
        "--input",
        input.to_str().unwrap(),
        "--workload",
        "two_mm",
        "--no-timing",
    ]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("exclusive"));

    let output = run_opt(&[
        "--input",
        input.to_str().unwrap(),
        "--size",
        "32",
        "--no-timing",
    ]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--size"));

    let variants = tmpfile("variants.txt", "construct,lower\n");
    let output = run_opt(&[
        "--workload",
        "two_mm",
        "--no-timing",
        "--sweep",
        variants.to_str().unwrap(),
        "--emit-ir",
        "/tmp/out.hir",
    ]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--emit-ir"));
}

/// Runs `hida-opt --input` on `text` and returns its stderr, requiring a
/// plain failure: exit status 1, not a signal.
fn rejected(name: &str, text: &str) -> String {
    let path = tmpfile(name, text);
    let output = run_opt(&["--input", path.to_str().unwrap(), "--no-timing"]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{name}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Nesting past the parser's bound, read on the main thread of `hida-opt`,
/// is a positioned error; ten thousand nested regions or fifty thousand
/// nested arrays used to overflow the stack and abort the process.
#[test]
fn deep_nesting_is_a_positioned_error() {
    let max = hida_ir_core::parse::MAX_NESTING;
    let bound = format!("expected at most {max} nested regions, arrays and types");
    let regions = format!(
        "\"builtin.module\"() {{sym_name = \"m\"}}\n{}{{\n{}",
        "{\n\"t.n\"()\n".repeat(10_000),
        "}\n".repeat(10_001)
    );
    // The `{` one past the bound opens line `2 * (max + 1)`.
    let stderr = rejected("deep_regions.hir", &regions);
    let at = format!("line {}, column 1: {bound}, found '{{'", 2 * (max + 1));
    assert!(stderr.contains(&at), "{stderr}");

    let arrays = format!(
        "\"builtin.module\"() {{a = {}1{}}}\n{{\n}}\n",
        "[".repeat(50_000),
        "]".repeat(50_000)
    );
    let stderr = rejected("deep_arrays.hir", &arrays);
    assert!(stderr.contains(&format!("{bound}, found '['")), "{stderr}");
}

/// A shape whose size in bits overflows 64-bit arithmetic is rejected where
/// it is written: compiled, it used to report a design with no BRAM.
#[test]
fn overflowing_shapes_are_positioned_errors() {
    let two_mm = std::fs::read_to_string(example("two_mm.hir")).expect("read two_mm.hir");
    for shape in ["2147483648x2147483648", "4294967296x4294967296"] {
        let text = two_mm.replace("memref<96x96xf32>", &format!("memref<{shape}xf32>"));
        let stderr = rejected(&format!("two_mm_{shape}.hir"), &text);
        assert!(
            stderr.contains(&format!(
                "line 5, column 43: expected a shaped type of at most 2^63-1 bits, \
                 found 'memref<{shape}xf32>'"
            )),
            "{stderr}"
        );
    }
}

/// Text that parses but does not verify is rejected as input before any
/// pass runs: here an `affine.store` uses `%x2`, which the body of a
/// sibling `affine.for` defines.
#[test]
fn input_that_does_not_verify_is_an_input_error() {
    let text = r#""builtin.module"() {sym_name = "m"}
{
  "func.func"() {result_types = [], sym_name = "f"}
  {
    %A0 = "memref.alloc"() {name = "A"} : memref<4xf32>
    "affine.for"() {loop_name = "i", lower_bound = 0, step = 1, upper_bound = 4}
    {
    ^bb(%i1: index):
      %x2 = "affine.load"(%A0, %i1) : f32
    }
    "affine.for"() {loop_name = "j", lower_bound = 0, step = 1, upper_bound = 4}
    {
    ^bb(%j3: index):
      "affine.store"(%x2, %A0, %j3)
    }
  }
}
"#;
    let stderr = rejected("sibling_use.hir", text);
    assert!(
        !stderr.contains("pass 'hida-construct-dataflow'"),
        "{stderr}"
    );
    assert!(
        stderr.contains(
            "verifying textual IR 'sibling_use': verification failed: \
             operand 0 of 'affine.store' (op6) is not visible at its use site"
        ),
        "{stderr}"
    );
}
