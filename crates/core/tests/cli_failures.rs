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
    // The failed one reports its error, then its reason, once.
    assert!(
        stdout.contains("\n  error: pass 'hida-parallelize' failed: ")
            && stdout.contains("\n  reason: Failed\n"),
        "{stdout}"
    );

    let json = Command::new(BIN)
        .args(["--workload", "two_mm", "--size", "32", "--jobs", "1"])
        .arg("--stats-json")
        .arg("--sweep")
        .arg(&path)
        .output()
        .expect("run hida-opt --sweep --stats-json");
    let json = String::from_utf8_lossy(&json.stdout);
    assert!(json.contains(",\"reason\":\"Failed\"}]"), "{json}");
}

#[test]
fn explore_exits_nonzero_and_summarizes_failed_points() {
    let contents = format!("explore{{objectives=throughput+dsp}}\n{MIXED_VARIANTS}");
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
        stdout.contains("FAILED: 1 of 2 explore points (p02)"),
        "missing failure summary in:\n{stdout}"
    );
    assert!(
        stderr.contains("1 of 2 explore points failed"),
        "missing error line in:\n{stderr}"
    );
    // The frontier holds the point that compiled.
    assert!(
        stdout.contains("# Pareto frontier (1 points)\n  p01: throughput"),
        "missing frontier in:\n{stdout}"
    );
}

#[test]
fn explore_is_deterministic_across_job_counts() {
    let contents = "\
explore{objectives=throughput+dsp+bram}
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

/// `--run-budget-ms` bounds an exploration as it bounds the sweep it is: the
/// plan stalls the first point past the budget, and at one job it and every
/// point after it time out against the run budget — the same labels under
/// `--explore` as under `--sweep`.
#[test]
fn explore_run_budget_fails_the_same_labels_as_sweep() {
    let variants = "\
construct,lower,tiling{factor=2},parallelize{max-factor=2,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=4},parallelize{max-factor=2,device=zu3eg}
construct,lower,tiling{factor=4},parallelize{max-factor=4,device=zu3eg}
";
    let path = write_variants("explore_run_budget.txt", variants);
    let failed = |mode: &str| {
        let output = Command::new(BIN)
            .args(["--workload", "two_mm", "--size", "32", "--no-timing"])
            .args(["--jobs", "1", "--run-budget-ms", "300"])
            .args(["--inject-faults", "seed=2,stall=1,stall-ms=900"])
            .arg(mode)
            .arg(&path)
            .output()
            .expect("run hida-opt");
        assert!(!output.status.success(), "{mode} must fail");
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(stdout.contains("(run budget)"), "{mode}:\n{stdout}");
        let summary = stdout
            .lines()
            .find_map(|line| line.strip_prefix("FAILED: "))
            .unwrap_or_else(|| panic!("{mode}: no failure summary in:\n{stdout}"));
        summary
            .split_once('(')
            .expect("failed labels")
            .1
            .to_string()
    };
    let swept = failed("--sweep");
    assert_eq!(swept, "p01, p02, p03, p04)");
    assert_eq!(failed("--explore"), swept);
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

/// `--size` sizes PolyBench kernels only: a DNN model rejects it, in every
/// mode and before any report output, as `--input` does.
#[test]
fn size_is_rejected_for_dnn_models_before_any_output() {
    let path = write_variants(
        "size_dnn.txt",
        "construct,lower,tiling{factor=2},parallelize{max-factor=2,device=zu3eg}\n",
    );
    let path = path.to_str().expect("utf-8 tmpdir");
    for mode in [&[][..], &["--sweep", path], &["--explore", path]] {
        let output = Command::new(BIN)
            .args(["--workload", "lenet", "--size", "32", "--no-timing"])
            .args(mode)
            .output()
            .expect("run hida-opt");
        assert!(!output.status.success(), "{mode:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stdout.is_empty(), "{mode:?}:\n{stdout}");
        assert!(
            stderr.contains("--size applies to PolyBench kernels, not the DNN model 'lenet'"),
            "{mode:?}:\n{stderr}"
        );
    }
}

/// A failed point is compiled once: there is no retry flag to ask for more.
#[test]
fn the_retries_flag_is_an_unknown_argument() {
    let output = Command::new(BIN)
        .args(["--workload", "two_mm", "--retries", "1"])
        .output()
        .expect("run hida-opt");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown argument '--retries'"), "{stderr}");
}

/// A `--cache-limit-mb` whose byte count does not fit in 64 bits is a flag
/// error before any output, not a budget that wraps to a few bytes and
/// evicts the segment the run just published.
#[test]
fn a_cache_limit_past_64_bit_bytes_is_rejected_before_any_output() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cache_limit_overflow");
    let _ = std::fs::remove_dir_all(&dir);
    let run = |mb: &str| {
        Command::new(BIN)
            .args(["--workload", "two_mm", "--size", "32", "--no-timing"])
            .arg("--cache-dir")
            .arg(&dir)
            .args(["--cache-limit-mb", mb])
            .output()
            .expect("run hida-opt")
    };
    // 2^44 MiB is 2^64 bytes, one past the largest.
    let output = run("17592186044416");
    assert_eq!(output.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("--cache-limit-mb: 17592186044416 megabytes do not fit"),
        "{stderr}"
    );
    assert!(!dir.exists(), "the store was opened");
    // One megabyte less fits, and the run publishes its segment.
    let output = run("17592186044415");
    assert!(output.status.success(), "{output:?}");
    let segments = std::fs::read_dir(&dir).expect("store directory").count();
    assert_eq!(segments, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
