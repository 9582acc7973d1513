//! `hida-opt --emit-cpp <file>`: the file holds exactly the C++ that
//! `Compiler::compile` emits for the same compilation, a batch run rejects
//! the flag, and a write failure names the path.

use std::path::PathBuf;
use std::process::{Command, Output};

use hida::{Compiler, HidaOptions, PolybenchKernel, Workload};

const BIN: &str = env!("CARGO_BIN_EXE_hida-opt");

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
}

/// A fresh path under this test binary's scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("emit_cpp");
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn run_opt(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("run hida-opt")
}

/// Runs `hida-opt <args> --emit-cpp <out>` and returns what it wrote.
fn emitted(args: &[&str], out: &str) -> String {
    let path = scratch(out);
    let mut all = args.to_vec();
    all.extend(["--no-timing", "--emit-cpp", path.to_str().unwrap()]);
    let output = run_opt(&all);
    assert!(
        output.status.success(),
        "hida-opt {all:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains(&format!("emitted C++: {}", path.display())),
        "{stdout}"
    );
    std::fs::read_to_string(&path).expect("read the emitted C++")
}

fn compiled(workload: Workload) -> String {
    Compiler::new(HidaOptions::default())
        .compile(workload)
        .expect("compiles")
        .hls_cpp
}

#[test]
fn a_builtin_workload_writes_what_compile_emits() {
    let got = emitted(&["--workload", "two_mm"], "two_mm.cpp");
    assert_eq!(got, compiled(Workload::Polybench(PolybenchKernel::TwoMm)));
}

#[test]
fn a_textual_input_writes_what_compile_emits() {
    let input = example("two_mm.hir");
    let got = emitted(&["--input", input.to_str().unwrap()], "two_mm_hir.cpp");
    let text = std::fs::read_to_string(&input).expect("read examples/two_mm.hir");
    assert_eq!(got, compiled(Workload::text_ir("two_mm", text)));
}

#[test]
fn a_batch_run_rejects_the_flag() {
    let variants = scratch("variants.txt");
    std::fs::write(&variants, "construct,lower\n").expect("write variants");
    for mode in ["--sweep", "--explore"] {
        let output = run_opt(&[
            "--workload",
            "two_mm",
            mode,
            variants.to_str().unwrap(),
            "--emit-cpp",
            scratch("batch.cpp").to_str().unwrap(),
        ]);
        assert!(!output.status.success());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!(
                "--emit-cpp applies to single compilations, not {mode}"
            )),
            "{stderr}"
        );
    }
}

#[test]
fn a_write_failure_names_the_path() {
    let path = scratch("missing-dir").join("out.cpp");
    let path = path.to_str().unwrap();
    let output = run_opt(&["--workload", "two_mm", "--no-timing", "--emit-cpp", path]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("--emit-cpp: cannot write '{path}'")),
        "{stderr}"
    );
}
