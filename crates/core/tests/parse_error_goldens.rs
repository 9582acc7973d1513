//! What the `.hir` parser answers to broken text, pinned byte for byte.
//!
//! The inputs are deterministic mutations of the thirteen textual subjects
//! of the benchmark's `polybench-hir` workload (the eleven Table 7 kernels
//! printed at their default size, plus `examples/two_mm.hir` and
//! `examples/attention.hir`): truncations at fixed offsets, the deletion of
//! the first, middle and last occurrence of each structural byte, an
//! inserted non-ASCII character, a duplicated result name and an unknown type
//! word. Each line of `tests/snapshots/parse_errors.txt` is the exact
//! `Display` of the error, or `ok` and the structural fingerprint of what
//! parsed. The snapshot was written by the parser from before it read its
//! input as bytes; every later parser must reproduce it.
//!
//! The second test reads every checked-in `.hir` file and requires it to
//! re-print byte for byte.

use hida::{build_workload, PolybenchKernel, Workload};
use hida_ir_core::parse::parse_module;
use hida_ir_core::printer::print_op;
use hida_ir_core::{structural_fingerprint, Context};
use std::path::{Path, PathBuf};

/// The bytes the grammar is built from; deleting one of them breaks a
/// module in a different place each time.
const STRUCTURAL: &[u8] = b"\"(){}[]<>,=:%^\n";

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The thirteen `polybench-hir` subjects, by name.
fn subjects() -> Vec<(String, String)> {
    let mut subjects = Vec::new();
    for kernel in PolybenchKernel::all() {
        let mut ctx = Context::new();
        let (module, _) =
            build_workload(&mut ctx, Workload::Polybench(kernel)).expect("kernel builds");
        subjects.push((kernel.name().to_string(), print_op(&ctx, module)));
    }
    for name in ["two_mm.hir", "attention.hir"] {
        let text = std::fs::read_to_string(repo().join("examples").join(name)).expect("example");
        subjects.push((name.to_string(), text));
    }
    subjects
}

/// The largest char boundary of `text` at or before `at`.
fn boundary(text: &str, mut at: usize) -> usize {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// The name of the first value an op line defines, and where it starts.
fn defined_names(text: &str) -> Vec<(usize, &str)> {
    let mut names = Vec::new();
    let mut line_start = 0;
    for line in text.split_inclusive('\n') {
        let trimmed = line.trim_start();
        if trimmed.starts_with('%') {
            let at = line_start + (line.len() - trimmed.len());
            let end = trimmed.find([',', ' ']).unwrap_or(trimmed.len());
            names.push((at, &trimmed[..end]));
        }
        line_start += line.len();
    }
    names
}

/// Every mutation of `text`, labelled.
fn mutations(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let len = text.len();
    for k in 1..=7 {
        let at = boundary(text, len * k / 8);
        out.push((format!("truncate@{at}"), text[..at].to_string()));
    }
    for &byte in STRUCTURAL {
        let at: Vec<usize> = text
            .bytes()
            .enumerate()
            .filter(|&(_, b)| b == byte)
            .map(|(i, _)| i)
            .collect();
        if at.is_empty() {
            continue;
        }
        let mut picks = vec![0, at.len() / 2, at.len() - 1];
        picks.dedup();
        for k in picks {
            let mut mutated = text.to_string();
            mutated.remove(at[k]);
            let shown = char::from(byte).escape_default();
            out.push((format!("delete '{shown}'#{k}@{}", at[k]), mutated));
        }
    }
    for k in 1..=4 {
        let at = boundary(text, len * k / 5);
        let mut mutated = text.to_string();
        mutated.insert(at, 'λ');
        out.push((format!("insert 'λ'@{at}"), mutated));
    }
    let names = defined_names(text);
    if let [(_, first), (second_at, second), ..] = names[..] {
        let mut mutated = text.to_string();
        mutated.replace_range(second_at..second_at + second.len(), first);
        out.push((format!("duplicate {first}@{second_at}"), mutated));
    }
    if let Some(colon) = text.find(" : ") {
        let at = colon + 3;
        let end = text[at..]
            .find(|c: char| !c.is_ascii_alphanumeric())
            .map_or(len, |n| at + n);
        let mut mutated = text.to_string();
        mutated.replace_range(at..end, "qux7");
        out.push((format!("unknown result type@{at}"), mutated));
    }
    if let Some(at) = text.find("memref<") {
        let mut mutated = text.to_string();
        mutated.replace_range(at..at + "memref".len(), "memrof");
        out.push((format!("unknown shaped type@{at}"), mutated));
    }
    out
}

fn outcome(text: &str) -> String {
    match parse_module(text) {
        Ok((ctx, root)) => format!("ok {}", structural_fingerprint(&ctx, root)),
        Err(e) => e.to_string(),
    }
}

#[test]
fn mutated_subjects_fail_as_pinned() {
    let mut actual = String::new();
    for (name, text) in subjects() {
        for (label, mutated) in mutations(&text) {
            actual.push_str(&format!("{name} {label}: {}\n", outcome(&mutated)));
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/parse_errors.txt");
    let pinned = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != pinned {
        let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("parse_errors.txt");
        std::fs::write(&written, &actual).expect("write the actual outcomes");
        let first = actual.lines().zip(pinned.lines()).find(|(a, p)| a != p);
        panic!(
            "parse outcomes differ from {}; all of them are in {}\nfirst difference: {first:?}",
            path.display(),
            written.display()
        );
    }
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

#[test]
fn every_checked_in_hir_file_reprints_byte_for_byte() {
    let mut files = Vec::new();
    hir_files(&repo().join("crates/hida-opt/tests/snapshots"), &mut files);
    hir_files(&repo().join("examples"), &mut files);
    assert!(files.len() >= 10, "found only {files:?}");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read .hir");
        let (ctx, root) = parse_module(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            print_op(&ctx, root) == text,
            "{} does not re-print byte for byte",
            path.display()
        );
    }
}
