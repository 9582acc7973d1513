//! `hida-opt` writing to a stdout nobody reads (`hida-opt … | head -2` once
//! `head` has exited): the first failed write ends the output quietly, with
//! exit code 0, in every mode — no panic, no backtrace.

use std::path::PathBuf;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_hida-opt");

/// Runs `hida-opt args` with stdout a pipe whose read end is already closed,
/// and checks that it exits 0 without a panic on stderr.
fn exits_quietly(args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let output = Command::new(BIN)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run hida-opt");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{args:?}: exit {:?}, stderr:\n{stderr}",
        output.status.code()
    );
    assert!(!stderr.contains("panicked"), "{args:?}: stderr:\n{stderr}");
}

#[test]
fn a_single_compile_stops_quietly() {
    exits_quietly(&["--workload", "two_mm", "--no-timing"]);
    exits_quietly(&["--workload", "two_mm", "--stats-json"]);
}

#[test]
fn a_sweep_stops_quietly() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let path = dir.join("closed_stdout_variants.txt");
    std::fs::write(
        &path,
        "construct,lower,parallelize{max-factor=2,device=zu3eg}\n\
         construct,fusion,lower,parallelize{max-factor=4,device=zu3eg}\n",
    )
    .expect("write variants file");
    let path = path.to_str().expect("utf-8 path");
    exits_quietly(&[
        "--workload",
        "two_mm",
        "--size",
        "32",
        "--no-timing",
        "--jobs",
        "2",
        "--sweep",
        path,
    ]);
}

#[test]
fn the_pass_listing_stops_quietly() {
    exits_quietly(&["--list-passes"]);
}
