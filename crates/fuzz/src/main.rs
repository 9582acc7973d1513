//! Differential fuzzing driver.
//!
//! ```text
//! hida-fuzz [--cases N] [--seed S] [--dump-dir DIR] [--chaos]
//! ```
//!
//! Runs `N` differential cases with consecutive seeds starting at `S`
//! (see `hida_fuzz::run_case` for the checks). With `--chaos`, roughly half
//! the seeds additionally arm an injected pass panic and the oracle flips:
//! the armed pipeline must fail with a structured error naming the injected
//! fault, with no panic escaping the pass runner. On failure the offending
//! module is dumped as `DIR/fuzz-<seed>.hir` — replayable with
//! `hida-opt --input` — and the process exits non-zero.

use std::process::ExitCode;

struct Args {
    cases: u64,
    seed: u64,
    dump_dir: String,
    chaos: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 200,
        seed: 20240815,
        dump_dir: "target/fuzz-failures".to_string(),
        chaos: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--dump-dir" => args.dump_dir = value("--dump-dir")?,
            "--chaos" => args.chaos = true,
            "--help" | "-h" => {
                println!("usage: hida-fuzz [--cases N] [--seed S] [--dump-dir DIR] [--chaos]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hida-fuzz: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "hida-fuzz: {} cases from seed {}{} (dump dir: {})",
        args.cases,
        args.seed,
        if args.chaos { ", chaos mode" } else { "" },
        args.dump_dir
    );
    let run = if args.chaos {
        hida_fuzz::run_case_chaos
    } else {
        hida_fuzz::run_case
    };
    let mut failures = 0_u64;
    for i in 0..args.cases {
        let seed = args.seed.wrapping_add(i);
        match run(seed) {
            Ok(report) => {
                if i % 50 == 0 {
                    println!(
                        "  case {i} (seed {seed}): ok — {} nodes, pipeline {}",
                        report.nodes, report.pipeline
                    );
                }
            }
            Err(f) => {
                failures += 1;
                eprintln!("FAIL seed {seed}: {}", f.reason);
                eprintln!("  pipeline: {}", f.pipeline);
                if std::fs::create_dir_all(&args.dump_dir).is_ok() {
                    let path = format!("{}/fuzz-{seed}.hir", args.dump_dir);
                    match std::fs::write(&path, &f.module_text) {
                        Ok(()) => eprintln!("  module dumped to {path}"),
                        Err(e) => eprintln!("  could not dump module: {e}"),
                    }
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("hida-fuzz: {failures}/{} cases FAILED", args.cases);
        return ExitCode::FAILURE;
    }
    println!("hida-fuzz: all {} cases passed", args.cases);
    ExitCode::SUCCESS
}
