//! The HIDA benchmark harness. `run.sh` builds and starts it; README.md says
//! what it measures and why.
//!
//! With `--workload W` it runs that workload in this process and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Without, it starts one child process
//! of itself per workload (so peak memory is per workload), one after the
//! other, and gathers their result files into `results.json`.

mod alloc;
mod calibrate;
mod checks;
mod layers;
mod report;
mod run;
mod stats;
mod subjects;
mod trace;

use report::{metrics_object, string_array, Machine, Metric, NOT_IN_DRIVER_METRICS};
use run::{Config, RunResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use subjects::WORKLOADS;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: hida-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  --workload W  one of: dnn-single dnn-jobsN polybench-hir fig10-sweep fig10-store explore-grids
                (default: all six, each in a process of its own)
  --seed N      shuffles the subject order of every round and seeds the explorer (default 1)
  --seconds S   length of the timed window (default 15)
  --trace 0|1   0: end-to-end metrics only; 1: per-layer metrics only (half the time untraced,
                half traced); default: the full window, then the traced pass, both reported
  --out DIR     where results, traces and store directories go (default: benchmark/out)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: None,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload:<14} {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The stored result of one workload: everything the run measured plus the
/// machine description.
fn result_document(workload: &str, machine: &Machine, result: &RunResult) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"ops\": {}, \"rounds\": {}, \"samples_per_subject\": {}, \"tail_quantile\": {}, \
         \"slowdown\": {}, \"raw_op_ms_p50\": {}, \"machine\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"failures\": {}}}\n",
        result.failed == 0,
        result.attempted,
        result.failed,
        result.ops,
        result.rounds,
        result.samples_per_subject,
        result.tail_quantile,
        result.slowdown,
        result.raw_op_ms_p50,
        machine.to_json(),
        metrics_object(&result.end_to_end),
        metrics_object(&result.per_layer),
        string_array(&result.failures),
    )
}

fn run_one(args: &Args, workload: &str) -> Result<(), String> {
    let machine = Machine::detect(args.seed, args.seconds);
    let cfg = Config {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: args.out_dir.clone(),
        jobs_n: machine.jobs_n,
    };
    let result = run::run(&cfg)?;

    if args.trace != Some(true) {
        print_metrics(workload, &result.end_to_end);
        println!(
            "{workload:<14} op_ms_p90 is the p{:.1} of {} samples per subject ({} ops in {} rounds)",
            result.tail_quantile * 100.0,
            result.samples_per_subject,
            result.ops,
            result.rounds
        );
        println!(
            "{workload:<14} times are speed-corrected: the machine ran at {:.3}x its nominal time \
             (raw op_ms_p50 {:.6} ms)",
            result.slowdown, result.raw_op_ms_p50
        );
    }
    print_metrics(workload, &result.per_layer);
    if let Some(path) = &result.trace_file {
        println!("{workload:<14} trace written to {}", path.display());
    }
    for failure in &result.failures {
        println!("{workload:<14} FAILED CHECK: {failure}");
    }
    let path = args.out_dir.join(format!("result-{workload}.json"));
    std::fs::write(&path, result_document(workload, &machine, &result))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    // The driver's line: `--trace 0` carries the end-to-end metrics (all but
    // `failed_share`, see `NOT_IN_DRIVER_METRICS`), `--trace 1` the per-layer
    // ones, no `--trace` both.
    let driver_metrics: Vec<&Metric> = result
        .end_to_end
        .iter()
        .filter(|m| args.trace != Some(true) && m.name != NOT_IN_DRIVER_METRICS)
        .chain(&result.per_layer)
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics_object(driver_metrics)
    );
    Ok(())
}

/// Runs every workload in a child process of its own, one at a time, and
/// gathers the result files. Returns whether every workload was correct.
fn run_all(args: &Args) -> Result<bool, String> {
    let start = Instant::now();
    let machine = Machine::detect(args.seed, args.seconds);
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut documents = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--out")
            .arg(&args.out_dir)
            .status()
            .map_err(|e| format!("starting the {workload} process: {e}"))?;
        if !status.success() {
            return Err(format!("the {workload} process ended with {status}"));
        }
        let path = args.out_dir.join(format!("result-{workload}.json"));
        let document = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        // `result_document` writes this key first, in exactly this form.
        all_correct &= document.contains("\"correct\": true");
        documents.push(document.trim_end().to_string());
    }
    let total = start.elapsed().as_secs_f64();
    let path = args.out_dir.join("results.json");
    std::fs::write(
        &path,
        format!(
            "{{\"machine\": {}, \"total_wall_s\": {total}, \"workloads\": [\n{}\n]}}\n",
            machine.to_json(),
            documents.join(",\n")
        ),
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "all workloads: {total:.1} s wall; results in {}",
        path.display()
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(workload) => run_one(&args, workload).map(|()| true),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong output is a result, not a crash: one workload still prints
        // its line and exits 0; only the all-workloads run turns it into 1.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let args = parse(&[
            "--workload",
            "fig10-store",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(args.workload.as_deref(), Some("fig10-store"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (42, 10.0, Some(true))
        );
        let defaults = parse(&[]).expect("parses");
        assert_eq!(defaults.workload, None);
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (1, 15.0, None)
        );
        assert!(defaults.out_dir.ends_with("out"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn every_workload_is_declared_in_benchmark_json() {
        let declared = include_str!("../../BENCHMARK.json");
        for workload in WORKLOADS {
            assert!(
                declared.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")),
                "{workload}"
            );
        }
    }
}
