//! CLI chaos harness: `--inject-faults` must fail exactly the planned points
//! with structured reasons, stay byte-identical across job counts, leave the
//! surviving points' reports untouched relative to a fault-free run, time out
//! deterministically under `--deadline-ms`, and recover transient faults
//! under `--retries`.

use hida::{FaultKind, FaultPlan};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hida-opt");

/// Four healthy pipeline variants — any failure below is injected.
const HEALTHY_VARIANTS: &str = "\
construct,lower,tiling{factor=2},parallelize{max-factor=2,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=4},parallelize{max-factor=2,device=zu3eg}
construct,lower,tiling{factor=4},parallelize{max-factor=4,device=zu3eg}
";

fn write_variants(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write variants file");
    path
}

/// Runs `hida-opt --sweep` over `path` with extra args, returning
/// (exit-success, stdout).
fn run_sweep(path: &PathBuf, jobs: &str, extra: &[&str]) -> (bool, String) {
    run_batch("--sweep", path, jobs, extra)
}

/// The same for `hida-opt --explore`.
fn run_explore(path: &PathBuf, jobs: &str, extra: &[&str]) -> (bool, String) {
    run_batch("--explore", path, jobs, extra)
}

fn run_batch(mode: &str, path: &PathBuf, jobs: &str, extra: &[&str]) -> (bool, String) {
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
        .arg(mode)
        .arg(path)
        .args(extra)
        .output()
        .expect("run hida-opt on a variants file");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// Splits a sweep report into per-point blocks keyed by label (`p01`, ...).
fn point_blocks(stdout: &str) -> BTreeMap<String, String> {
    let mut blocks = BTreeMap::new();
    for chunk in stdout.split("\npoint ").skip(1) {
        let number = chunk.split(':').next().expect("point number");
        let body = chunk.split("\n\n").next().expect("point body");
        blocks.insert(format!("p{number}"), body.trim_end().to_string());
    }
    blocks
}

#[test]
fn injected_faults_fail_exactly_the_planned_points_at_any_job_count() {
    let path = write_variants("chaos_sweep.txt", HEALTHY_VARIANTS);
    let spec = "seed=7,pass-panic=1,store-read=1";

    // The expected failed set comes from the plan alone — the same
    // assignment the engine computes, independent of scheduling.
    let plan = FaultPlan::parse(spec).expect("valid fault spec");
    let labels: Vec<String> = (1..=4).map(|i| format!("p{i:02}")).collect();
    let expected: Vec<String> = plan.assign(&labels).keys().cloned().collect();
    assert_eq!(expected.len(), 2, "the plan arms two fatal faults");

    let (ok, chaos1) = run_sweep(&path, "1", &["--inject-faults", spec]);
    assert!(!ok, "a sweep with injected faults must exit nonzero");
    let (ok, chaos4) = run_sweep(&path, "4", &["--inject-faults", spec]);
    assert!(!ok);
    assert_eq!(
        chaos1, chaos4,
        "--no-timing chaos output must be byte-identical across job counts"
    );

    let summary = format!("FAILED: 2 of 4 sweep points ({})", expected.join(", "));
    assert!(
        chaos1.contains(&summary),
        "missing summary '{summary}' in:\n{chaos1}"
    );
    assert!(
        chaos1.contains("Panicked") && chaos1.contains("StoreDegraded"),
        "failures must carry structured reasons:\n{chaos1}"
    );

    // Surviving points report exactly what a fault-free run reports.
    let (ok, clean) = run_sweep(&path, "1", &[]);
    assert!(ok, "the fault-free sweep must pass:\n{clean}");
    let chaos_blocks = point_blocks(&chaos1);
    let clean_blocks = point_blocks(&clean);
    for label in &labels {
        if expected.contains(label) {
            continue;
        }
        assert_eq!(
            chaos_blocks.get(label),
            clean_blocks.get(label),
            "survivor {label} must be byte-identical to the fault-free run"
        );
    }
}

#[test]
fn stalled_point_times_out_under_a_deadline() {
    let path = write_variants("chaos_deadline.txt", HEALTHY_VARIANTS);
    let (ok, stdout) = run_sweep(
        &path,
        "2",
        &[
            "--inject-faults",
            "seed=5,stall=1,stall-ms=400",
            "--deadline-ms",
            "50",
        ],
    );
    assert!(!ok, "a timed-out point must fail the sweep");
    assert!(
        stdout.contains("TimedOut") && stdout.contains("FAILED: 1 of 4"),
        "missing structured timeout in:\n{stdout}"
    );
}

#[test]
fn transient_faults_recover_under_retries() {
    let path = write_variants("chaos_retries.txt", HEALTHY_VARIANTS);
    let (ok, stdout) = run_sweep(
        &path,
        "2",
        &[
            "--inject-faults",
            "seed=3,pass-panic=1,transient",
            "--retries",
            "1",
        ],
    );
    assert!(
        ok,
        "a transient fault must converge under --retries 1:\n{stdout}"
    );
    assert!(!stdout.contains("FAILED"), "no point may fail:\n{stdout}");
}

/// A store directory under the test tmpdir that does not exist yet.
fn fresh_store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dir);
    dir
}

/// The `"persistent_cache"` object of a `--stats-json` document.
fn persistent_counters(json: &str) -> &str {
    let start = json
        .find("\"persistent_cache\":{")
        .unwrap_or_else(|| panic!("no persistent_cache in:\n{json}"));
    let end = start + json[start..].find('}').expect("object end");
    &json[start..=end]
}

/// The store's own fault sites under a real `--cache-dir`: the read fault
/// fails exactly the planned point, the short write is a counted non-fatal
/// degradation, the surviving points' estimates are still published — as one
/// segment — and report and counters are the same at any job count.
#[test]
fn store_faults_over_a_cache_dir_keep_their_failed_set_and_counters_at_any_job_count() {
    let path = write_variants("chaos_store.txt", HEALTHY_VARIANTS);
    let spec = "seed=7,short-write=1,store-read=1";
    let plan = FaultPlan::parse(spec).expect("valid fault spec");
    let labels: Vec<String> = (1..=4).map(|i| format!("p{i:02}")).collect();
    let assigned = plan.assign(&labels);
    assert_eq!(assigned.len(), 2, "one fault of each kind");
    let fatal: Vec<&str> = assigned
        .iter()
        .filter(|(_, kind)| **kind == FaultKind::StoreRead)
        .map(|(label, _)| label.as_str())
        .collect();
    let summary = format!("FAILED: 1 of 4 sweep points ({})", fatal.join(", "));

    let mut runs = Vec::new();
    for jobs in ["1", "4"] {
        let dir = fresh_store_dir(&format!("chaos_store_{jobs}"));
        let dir_arg = dir.to_str().expect("utf-8 tmpdir");
        let faults = ["--inject-faults", spec, "--cache-dir", dir_arg];
        // Cold: three surviving points, one entry each (2mm's two products
        // put the same numbers into the node model), one segment.
        let (ok, json) = run_sweep(&path, jobs, &[&faults[..], &["--stats-json"]].concat());
        assert!(!ok, "the store-read fault must fail the sweep:\n{json}");
        assert_eq!(
            persistent_counters(&json),
            "\"persistent_cache\":{\"hits\":0,\"misses\":3,\"writes\":3,\"evictions\":0,\
             \"corrupt\":0,\"write_errors\":1,\"read_errors\":1}",
        );
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // Warm, same plan: the same point fails and no file is added.
        let (ok, report) = run_sweep(&path, jobs, &faults);
        assert!(!ok);
        assert!(report.contains(&summary), "missing '{summary}':\n{report}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
        runs.push(report);
    }
    assert_eq!(runs[0], runs[1], "--jobs 1 vs --jobs 4");
}

/// A 3x2 grid (parallel factor x tile size). Its four corners and the
/// centroid seed generation 0; the sixth candidate is generation 1.
const EXPLORE_VARIANTS: &str = "\
construct,lower,tiling{factor=2},parallelize{max-factor=1,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=16,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=1,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=16,device=zu3eg}
";

/// The labels of an exploration's waves, read off its report: the `seeds:`
/// line is generation 0, and on the 3x2 grid everything else is generation 1.
fn explore_waves(stdout: &str) -> Vec<Vec<String>> {
    let seeds: Vec<String> = stdout
        .lines()
        .find_map(|line| line.strip_prefix("seeds: "))
        .expect("an exploration report names its seeds")
        .split(", ")
        .map(str::to_string)
        .collect();
    let generations = stdout
        .lines()
        .filter(|l| l.starts_with("generation "))
        .count();
    assert_eq!(
        generations, 2,
        "the 3x2 grid explores in two waves:\n{stdout}"
    );
    let rest = (1..=6)
        .map(|i| format!("p{i:02}"))
        .filter(|label| !seeds.contains(label))
        .collect();
    vec![seeds, rest]
}

/// [`point_blocks`] of an exploration report, whose point headers already
/// carry the label (`point p05: ...`).
fn explored_blocks(stdout: &str) -> BTreeMap<String, String> {
    point_blocks(stdout)
        .into_iter()
        .map(|(key, body)| (key[1..].to_string(), body))
        .collect()
}

/// Every candidate's lowering runs under the point's fault context and
/// deadline — the explorer has no other compile path. A stall armed on one
/// candidate of each wave times exactly those out, and the candidates that
/// sat lowered at the barrier while it slept (eight deadlines long) still
/// finish: their clock does not count the wait.
#[test]
fn explored_stall_times_out_the_afflicted_candidates_only() {
    let path = write_variants("chaos_explore_deadline.txt", EXPLORE_VARIANTS);
    let spec = "seed=5,stall=1,stall-ms=400";
    let (ok, stdout) = run_explore(
        &path,
        "2",
        &["--inject-faults", spec, "--deadline-ms", "50"],
    );
    assert!(!ok, "timed-out candidates must fail the run:\n{stdout}");
    let plan = FaultPlan::parse(spec).expect("valid fault spec");
    let mut expected: Vec<String> = explore_waves(&stdout)
        .iter()
        .flat_map(|wave| plan.assign(wave).into_keys())
        .collect();
    expected.sort();
    let blocks = explored_blocks(&stdout);
    let mut timed_out: Vec<String> = blocks
        .iter()
        .filter(|(_, body)| body.contains("error:"))
        .map(|(label, _)| label.clone())
        .collect();
    timed_out.sort();
    assert_eq!(timed_out, expected, "{stdout}");
    for label in &expected {
        let body = &blocks[label];
        assert!(
            body.contains("TimedOut") && body.contains("deadline of 50ms exceeded"),
            "{label} must time out at its deadline:\n{body}"
        );
    }
    assert_eq!(blocks.len(), 6, "every candidate is reported:\n{stdout}");
}

/// A transient pass panic hits candidates in their pooled lowering; one retry
/// under the degradation ladder converges to the fault-free report.
#[test]
fn explored_transient_faults_recover_under_retries() {
    let path = write_variants("chaos_explore_retries.txt", EXPLORE_VARIANTS);
    let (ok, clean) = run_explore(&path, "1", &[]);
    assert!(ok, "the fault-free exploration must pass:\n{clean}");
    for jobs in ["1", "4"] {
        let (ok, stdout) = run_explore(
            &path,
            jobs,
            &[
                "--inject-faults",
                "seed=3,pass-panic=1,transient",
                "--retries",
                "1",
            ],
        );
        assert!(ok, "--retries 1 must absorb a transient fault:\n{stdout}");
        assert_eq!(stdout, clean, "--jobs {jobs}");
    }
}

/// Without retries the same panic fails exactly the candidates the plan
/// assigns in each wave, identically at any job count.
#[test]
fn explored_faults_fail_exactly_the_assigned_candidates_at_any_job_count() {
    let path = write_variants("chaos_explore_panic.txt", EXPLORE_VARIANTS);
    let spec = "seed=3,pass-panic=1";
    let (ok, chaos1) = run_explore(&path, "1", &["--inject-faults", spec, "--retries", "0"]);
    assert!(!ok);
    let (ok, chaos4) = run_explore(&path, "4", &["--inject-faults", spec, "--retries", "0"]);
    assert!(!ok);
    assert_eq!(chaos1, chaos4);

    // The summary lists failures in exploration order: wave by wave, and
    // within a wave in file order.
    let plan = FaultPlan::parse(spec).expect("valid fault spec");
    let expected: Vec<String> = explore_waves(&chaos1)
        .iter()
        .flat_map(|wave| {
            let assigned = plan.assign(wave);
            wave.iter()
                .filter(move |l| assigned.contains_key(*l))
                .cloned()
        })
        .collect();
    let summary = format!("FAILED: 2 of 6 compiled points ({})", expected.join(", "));
    assert!(
        chaos1.contains(&summary),
        "missing '{summary}' in:\n{chaos1}"
    );
    assert!(chaos1.contains("Panicked"), "{chaos1}");
}

#[test]
fn single_run_isolates_an_injected_pass_panic() {
    let output = Command::new(BIN)
        .args([
            "--workload",
            "two_mm",
            "--size",
            "32",
            "--no-timing",
            "--jobs",
            "1",
            "--inject-faults",
            "seed=1,pass-panic=1",
        ])
        .output()
        .expect("run hida-opt");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("injected fault"),
        "error must name the injected fault:\n{stderr}"
    );
    // The structured `WorkerPanic` display mentions the panic; what must NOT
    // appear is the runtime's own report of an escaped panic.
    assert!(
        !stderr.contains("stack backtrace") && !stderr.contains("thread 'main' panicked"),
        "the injected panic must not escape as a raw panic report:\n{stderr}"
    );
}

/// Runs a single `hida-opt` compilation with extra args, returning
/// (exit-success, stdout, stderr).
fn run_single(extra: &[&str]) -> (bool, String, String) {
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
        .args(extra)
        .output()
        .expect("run hida-opt");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// A single run goes through the same compile path as a sweep point, so the
/// faults armed past the pass pipeline reach it too: the plan that fails a
/// one-line `--sweep` with `StoreDegraded` fails the single run the same way.
#[test]
fn single_run_reports_an_injected_store_read_fault_like_a_one_line_sweep() {
    let spec = "seed=1,store-read=1";
    let (ok, stdout, stderr) = run_single(&["--inject-faults", spec]);
    assert!(!ok, "an injected store fault must fail the run:\n{stdout}");
    assert!(
        stderr.contains("estimate store degraded") && stderr.contains("injected EIO"),
        "error must be the structured StoreDegraded one:\n{stderr}"
    );
    // The pass pipeline ran and was reported before estimation failed.
    assert!(stdout.contains("# Schedule"), "missing schedule:\n{stdout}");
    assert!(!stdout.contains("# QoR estimate"), "{stdout}");

    let path = write_variants(
        "chaos_one_line.txt",
        HEALTHY_VARIANTS.lines().next().expect("a variant"),
    );
    let (ok, sweep) = run_sweep(&path, "1", &["--inject-faults", spec]);
    assert!(!ok);
    assert!(
        sweep.contains("StoreDegraded") && sweep.contains("injected EIO"),
        "the one-line sweep must fail the same way:\n{sweep}"
    );
}

/// An injected stall sits at the start of the compilation, where the
/// single run's `--deadline-ms` catches it at the first pass boundary.
#[test]
fn single_run_stall_hits_its_deadline() {
    let (ok, stdout, stderr) = run_single(&[
        "--inject-faults",
        "seed=1,stall=1,stall-ms=300",
        "--deadline-ms",
        "50",
    ]);
    assert!(!ok, "a stalled run past its deadline must fail:\n{stdout}");
    assert!(
        stderr.contains("deadline of 50ms exceeded"),
        "missing deadline error:\n{stderr}"
    );
}

/// `construct,tiling,parallelize` has no `lower`: the prefix all four lines
/// share fails in its second pass. Each point reports that failure as its
/// own — once, from its own share-nothing compile — at any job count.
#[test]
fn a_failing_shared_prefix_is_reported_once_per_point() {
    let variants: String = [2, 4, 8, 16]
        .iter()
        .map(|pf| {
            format!("construct,tiling{{factor=4}},parallelize{{max-factor={pf},device=zu3eg}}\n")
        })
        .collect();
    let path = write_variants("chaos_shared_prefix.txt", &variants);
    let (ok, jobs1) = run_sweep(&path, "1", &[]);
    assert!(!ok);
    let (ok, jobs4) = run_sweep(&path, "4", &[]);
    assert!(!ok);
    assert_eq!(jobs1, jobs4, "--jobs 1 vs --jobs 4");
    assert!(
        jobs1.contains("FAILED: 4 of 4 sweep points (p01, p02, p03, p04)"),
        "{jobs1}"
    );
    let blocks = point_blocks(&jobs1);
    assert_eq!(blocks.len(), 4);
    for (label, body) in &blocks {
        assert_eq!(
            body.matches("error: pass 'hida-tiling' failed").count(),
            1,
            "{label}:\n{body}"
        );
        assert_eq!(
            body.matches("attempt 0: Failed").count(),
            1,
            "{label}:\n{body}"
        );
        assert!(!body.contains("attempt 1"), "{label}:\n{body}");
    }
}

/// The `"prefix"` member of a batch `--stats-json` document, which follows
/// `"persistent_cache"` and closes the mode's object.
fn prefix_counters(json: &str) -> &str {
    let start = json
        .find("\"persistent_cache\":null,\"prefix\":{")
        .unwrap_or_else(|| panic!("no prefix member after persistent_cache in:\n{json}"));
    let end = start + json[start..].find('}').expect("object end");
    assert!(json[end..].starts_with("}}}"), "{json}");
    &json[start + "\"persistent_cache\":null,".len()..=end]
}

/// The healthy grid is two passes shared by all four lines, a tile size
/// shared by two each, and a `parallelize` of its own per line: eight of its
/// sixteen passes run, behind three checkpoints. A point with armed faults
/// stays out of the tree. Either way the counters do not depend on `--jobs`.
#[test]
fn prefix_counters_are_reported_and_repeat_at_any_job_count() {
    let path = write_variants("chaos_prefix_counters.txt", HEALTHY_VARIANTS);
    let explore = write_variants("chaos_prefix_counters_explore.txt", EXPLORE_VARIANTS);
    for jobs in ["1", "2", "4"] {
        let (ok, json) = run_sweep(&path, jobs, &["--stats-json"]);
        assert!(ok, "{json}");
        assert_eq!(
            prefix_counters(&json),
            "\"prefix\":{\"passes_run\":8,\"passes_reused\":8,\"checkpoints\":3}",
            "--jobs {jobs}"
        );
        // Two of the four armed (one of each tile size): the other two still
        // lower every checkpoint on their paths, and share `construct,lower`.
        let faults = ["--inject-faults", "seed=7,pass-panic=1,store-read=1"];
        let (ok, json) = run_sweep(&path, jobs, &[&faults[..], &["--stats-json"]].concat());
        assert!(!ok);
        assert_eq!(
            prefix_counters(&json),
            "\"prefix\":{\"passes_run\":6,\"passes_reused\":2,\"checkpoints\":3}",
            "--jobs {jobs}, two points armed"
        );
        // All six candidates of the 3x2 grid are probed, over two
        // generations sharing one tree: `construct,lower`, two tile sizes,
        // six `parallelize`.
        let (ok, json) = run_explore(&explore, jobs, &["--stats-json"]);
        assert!(ok, "{json}");
        assert_eq!(
            prefix_counters(&json),
            "\"prefix\":{\"passes_run\":10,\"passes_reused\":14,\"checkpoints\":3}",
            "--explore --jobs {jobs}"
        );
    }
}
