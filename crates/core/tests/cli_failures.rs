//! CLI failure handling: `--sweep` and `--explore` must exit nonzero when any
//! design point fails to compile, and print a failure summary naming the
//! failed points — a CI matrix that swallows per-point errors would otherwise
//! report green on broken sweeps.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hida-opt");

/// Writes `contents` to a fresh file under the target tmpdir and returns its path.
fn write_variants(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write variants file");
    path
}

/// One healthy point and one that parses but dies at run time (`parallelize`
/// without `lower` has no schedule to parallelize).
const MIXED_VARIANTS: &str = "\
construct,lower,tiling{factor=2},parallelize{max-factor=2,device=zu3eg}
parallelize{max-factor=2,device=zu3eg}
";

#[test]
fn sweep_exits_nonzero_and_summarizes_failed_points() {
    let path = write_variants("sweep_failures.txt", MIXED_VARIANTS);
    let output = Command::new(BIN)
        .args([
            "--workload",
            "two_mm",
            "--size",
            "32",
            "--no-timing",
            "--jobs",
            "1",
        ])
        .arg("--sweep")
        .arg(&path)
        .output()
        .expect("run hida-opt --sweep");
    assert!(
        !output.status.success(),
        "a sweep with a failing point must exit nonzero"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stdout.contains("FAILED: 1 of 2 sweep points (p02)"),
        "missing failure summary in:\n{stdout}"
    );
    assert!(
        stderr.contains("1 of 2 sweep points failed"),
        "missing error line in:\n{stderr}"
    );
    // The healthy point still reports its QoR.
    assert!(
        stdout.contains("qor: throughput"),
        "healthy point missing QoR:\n{stdout}"
    );
}

#[test]
fn explore_exits_nonzero_and_summarizes_failed_points() {
    let contents = format!("explore{{seed=3}}\n{MIXED_VARIANTS}");
    let path = write_variants("explore_failures.txt", &contents);
    let output = Command::new(BIN)
        .args([
            "--workload",
            "two_mm",
            "--size",
            "32",
            "--no-timing",
            "--jobs",
            "1",
        ])
        .arg("--explore")
        .arg(&path)
        .output()
        .expect("run hida-opt --explore");
    assert!(
        !output.status.success(),
        "an exploration with a failing point must exit nonzero"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stdout.contains("FAILED: 1 of"),
        "missing failure summary in:\n{stdout}"
    );
    assert!(
        stdout.contains("(p02)"),
        "summary must name the failed point:\n{stdout}"
    );
    assert!(
        stderr.contains("compiled points failed"),
        "missing error line in:\n{stderr}"
    );
}

#[test]
fn explore_is_deterministic_across_job_counts() {
    let contents = "\
explore{seed=11,extras=0}
construct,lower,tiling{factor=2},parallelize{max-factor=1,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=16,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=1,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=16,device=zu3eg}
";
    let path = write_variants("explore_determinism.txt", contents);
    let run = |jobs: &str| {
        let output = Command::new(BIN)
            .args([
                "--workload",
                "two_mm",
                "--size",
                "32",
                "--no-timing",
                "--jobs",
                jobs,
            ])
            .arg("--explore")
            .arg(&path)
            .output()
            .expect("run hida-opt --explore");
        assert!(
            output.status.success(),
            "exploration failed at --jobs {jobs}"
        );
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    assert_eq!(
        run("1"),
        run("4"),
        "--no-timing explore output must be byte-identical across job counts"
    );
}

/// Flag-exclusivity errors come before any report output: `--run-budget-ms`
/// is a sweep flag, and an exploration given one must say so without first
/// printing the workload/objectives header.
#[test]
fn explore_rejects_a_run_budget_before_printing_anything() {
    let contents = format!("explore{{seed=3}}\n{MIXED_VARIANTS}");
    let path = write_variants("explore_run_budget.txt", &contents);
    let output = Command::new(BIN)
        .args([
            "--workload",
            "two_mm",
            "--no-timing",
            "--run-budget-ms",
            "5",
        ])
        .arg("--explore")
        .arg(&path)
        .output()
        .expect("run hida-opt --explore");
    assert!(!output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("--run-budget-ms applies to --sweep"),
        "missing error in:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        output.stdout.is_empty(),
        "the error must come before any report output:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
}

/// `--jobs` is the width of a batch's pool. A single compilation accepts the
/// flag (scripts pass it unconditionally) and ignores the value: its report
/// is the same at any width and, timing lines included, never mentions jobs.
/// `--jobs 0` is rejected in every mode.
#[test]
fn a_single_run_accepts_and_ignores_jobs_and_zero_is_rejected() {
    let run = |extra: &[&str]| {
        let output = Command::new(BIN)
            .args(["--workload", "two_mm", "--size", "32"])
            .args(extra)
            .output()
            .expect("run hida-opt");
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (output.status.success(), stdout, stderr)
    };
    let (ok, no_flag, _) = run(&["--no-timing"]);
    assert!(ok);
    for jobs in ["1", "4"] {
        let (ok, report, stderr) = run(&["--no-timing", "--jobs", jobs]);
        assert!(ok, "--jobs {jobs}: {stderr}");
        assert_eq!(report, no_flag, "--jobs {jobs}");
    }
    let (ok, timed, _) = run(&["--jobs", "4"]);
    assert!(ok);
    assert!(timed.contains(" us, "), "{timed}");
    assert!(!timed.contains("jobs"), "{timed}");

    let (ok, stdout, stderr) = run(&["--jobs", "0"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("--jobs: must be >= 1"), "{stderr}");
}
