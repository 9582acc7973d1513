//! The report of a single `hida-opt` compilation, pinned byte for byte: the
//! `--no-timing` stdout and stderr, and the `--stats-json` document with
//! every `"micros":N` masked, of a healthy PolyBench kernel and DNN model, a
//! textual-IR input with both emitters (whose files are pinned too), a
//! pipeline that fails, an injected pass panic, an injected stall under a
//! deadline, and an input with no function to compile.
//! `tests/snapshots/cli_single/` was written by the build from before the
//! single compilation ran as a `SweepEngine` point; every later build must
//! reproduce it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_hida-opt");

/// One pinned run: the snapshot stem, the arguments (`{examples}` stands for
/// the repository's `examples/` directory), and whether it exits 0.
struct Case {
    name: &'static str,
    args: &'static [&'static str],
    succeeds: bool,
}

const CASES: [Case; 7] = [
    Case {
        name: "two_mm_default",
        args: &["--workload", "two_mm"],
        succeeds: true,
    },
    Case {
        name: "lenet_dnn",
        args: &["--workload", "lenet", "--preset", "dnn"],
        succeeds: true,
    },
    Case {
        name: "input_emit",
        args: &[
            "--input",
            "{examples}/two_mm.hir",
            "--emit-ir",
            "out.hir",
            "--emit-cpp",
            "out.cpp",
        ],
        succeeds: true,
    },
    Case {
        name: "failing_pipeline",
        args: &[
            "--workload",
            "two_mm",
            "--pipeline",
            "construct,tiling,parallelize",
        ],
        succeeds: false,
    },
    Case {
        name: "pass_panic",
        args: &[
            "--workload",
            "two_mm",
            "--inject-faults",
            "seed=1,pass-panic=1",
        ],
        succeeds: false,
    },
    Case {
        name: "stall_deadline",
        args: &[
            "--workload",
            "two_mm",
            "--inject-faults",
            "seed=1,stall=1,stall-ms=300",
            "--deadline-ms",
            "50",
        ],
        succeeds: false,
    },
    Case {
        name: "no_func",
        args: &["--input", "nofunc.hir"],
        succeeds: false,
    },
];

/// A module holding no `func.func`: its front end fails.
const NO_FUNC: &str = "\"builtin.module\"() {sym_name = \"empty\"}\n{\n}\n";

fn snapshot(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots/cli_single")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs the case with `extra` in a fresh directory of its own, which holds
/// `nofunc.hir` and receives whatever the run emits.
fn run(case: &Case, extra: &[&str]) -> (Output, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("cli_single")
        .join(format!("{}{}", case.name, extra.join("")));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create run dir");
    std::fs::write(dir.join("nofunc.hir"), NO_FUNC).expect("write nofunc.hir");
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let examples = examples.to_str().expect("utf-8 path");
    let args = case.args.iter().map(|a| a.replace("{examples}", examples));
    let output = Command::new(BIN)
        .args(args)
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("run hida-opt");
    assert_eq!(
        output.status.success(),
        case.succeeds,
        "{} {extra:?}: {}",
        case.name,
        String::from_utf8_lossy(&output.stderr)
    );
    (output, dir)
}

/// `"micros":N` → `"micros":0`: the only field of a single compilation's
/// document that varies from run to run.
fn mask_micros(json: &str) -> String {
    const KEY: &str = "\"micros\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

#[test]
fn single_compilation_reports_match_their_snapshots() {
    for case in &CASES {
        let (output, dir) = run(case, &["--no-timing"]);
        let name = case.name;
        assert_eq!(
            text(&output.stdout),
            snapshot(&format!("{name}.stdout")),
            "{name} stdout"
        );
        assert_eq!(
            text(&output.stderr),
            snapshot(&format!("{name}.stderr")),
            "{name} stderr"
        );
        for emitted in ["out.hir", "out.cpp"] {
            let written = std::fs::read_to_string(dir.join(emitted)).ok();
            if case.args.contains(&emitted) {
                let pinned = snapshot(&format!("{name}.{emitted}"));
                assert_eq!(
                    written.as_deref(),
                    Some(pinned.as_str()),
                    "{name}: {emitted}"
                );
            } else {
                assert_eq!(written, None, "{name}: {emitted}");
            }
        }
    }
}

#[test]
fn single_compilation_documents_match_their_snapshots() {
    for case in &CASES {
        let (output, _) = run(case, &["--stats-json"]);
        let name = case.name;
        let json = mask_micros(&text(&output.stdout));
        assert_eq!(
            json,
            snapshot(&format!("{name}.json")),
            "{name} --stats-json"
        );
    }
}
