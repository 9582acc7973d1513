//! Output checks. Every check lands in [`Checks`], whose counts become the
//! `attempted` / `failed` of the result and `failed_share`; nothing is skipped
//! and nothing panics on a wrong answer.
//!
//! References never come from the code path being timed: timed ops are
//! compared with share-nothing `Compiler::compile` results taken in set-up,
//! those are compared across job counts and against the hand-written rules in
//! `expected/cpp_shape.txt`, and the PolyBench subjects are also executed by
//! the `hida::sim` functional interpreter before and after optimization.

use hida::dataflow_ir::structural::ScheduleOp;
use hida::ir::Context;
use hida::sim::functional::Memory;
use hida::{CompilationResult, Compiler, DesignEstimate, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The rule set applied to every reference design.
pub const CPP_SHAPE_RULES: &str = include_str!("../expected/cpp_shape.txt");

/// Tally of every check made by one benchmark process.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }

    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// 64-bit FNV-1a, continued from `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one produced design is reduced to for comparison: a hash over the
/// emitted C++ and both estimates (every field, via `Debug`), plus the two
/// quality figures the end-to-end metrics aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    pub hash: u64,
    pub sps: f64,
    pub dsp_eff: f64,
}

pub fn digest_of(result: &CompilationResult) -> Digest {
    digest_of_parts(
        &result.hls_cpp,
        &result.estimate,
        &result.estimate_sequential,
    )
}

pub fn digest_of_parts(
    cpp: &str,
    dataflow: &DesignEstimate,
    sequential: &DesignEstimate,
) -> Digest {
    let mut hash = fnv1a(FNV_OFFSET, cpp.as_bytes());
    hash = fnv1a(hash, format!("{dataflow:?}").as_bytes());
    hash = fnv1a(hash, format!("{sequential:?}").as_bytes());
    Digest {
        hash,
        sps: dataflow.throughput(),
        dsp_eff: dataflow.dsp_efficiency(),
    }
}

/// Byte-identical C++ and equal estimates, e.g. between job counts.
pub fn same_design(what: &str, a: &CompilationResult, b: &CompilationResult) -> Result<(), String> {
    if a.hls_cpp != b.hls_cpp {
        return Err(format!("{what}: emitted C++ differs"));
    }
    if a.estimate != b.estimate || a.estimate_sequential != b.estimate_sequential {
        return Err(format!("{what}: estimates differ"));
    }
    Ok(())
}

#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    Contains(String),
    Balanced(char, char),
    DataflowNotSlower,
    ResourcesPositive,
}

/// Parses the rule file format documented in `expected/cpp_shape.txt`.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
        let rule = match (keyword, rest.trim()) {
            ("contains", needle) if !needle.is_empty() => Rule::Contains(needle.to_string()),
            ("balanced", pair) if pair.chars().count() == 2 => {
                let mut chars = pair.chars();
                Rule::Balanced(chars.next().unwrap_or('{'), chars.next().unwrap_or('}'))
            }
            ("dataflow-not-slower", "") => Rule::DataflowNotSlower,
            ("resources-positive", "") => Rule::ResourcesPositive,
            _ => return Err(format!("cpp_shape rule line {}: '{line}'", number + 1)),
        };
        rules.push(rule);
    }
    if rules.is_empty() {
        return Err("cpp_shape rule file holds no rules".to_string());
    }
    Ok(rules)
}

fn balanced(text: &str, open: char, close: char) -> bool {
    let mut depth = 0_i64;
    for c in text.chars() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth < 0 {
                return false;
            }
        }
    }
    depth == 0
}

/// Applies every rule to one design; `Err` names the first rule it breaks.
pub fn shape_holds(rules: &[Rule], what: &str, result: &CompilationResult) -> Result<(), String> {
    let (dataflow, sequential) = (&result.estimate, &result.estimate_sequential);
    for rule in rules {
        let ok = match rule {
            Rule::Contains(needle) => result.hls_cpp.contains(needle.as_str()),
            Rule::Balanced(open, close) => balanced(&result.hls_cpp, *open, *close),
            Rule::DataflowNotSlower => dataflow.throughput() >= sequential.throughput(),
            Rule::ResourcesPositive => {
                dataflow.resources.lut > 0
                    && dataflow.resources.ff > 0
                    && dataflow.interval_cycles >= 1
                    && dataflow.latency_cycles >= 1
            }
        };
        if !ok {
            return Err(format!("{what}: breaks cpp_shape rule {rule:?}"));
        }
    }
    Ok(())
}

/// Deterministic per-buffer fill, so both lowerings see identical inputs.
fn name_fill(name: &str) -> f64 {
    0.25 + (fnv1a(FNV_OFFSET, name.as_bytes()) % 8) as f64 * 0.125
}

/// Seeds every original buffer (a uniform fill plus a diagonal ramp, so an
/// index mix-up changes the result), interprets the schedule, and returns the
/// buffer contents by base name. Multi-producer elimination moves a buffer's
/// final value into its deepest `_dup` copy, which is the one kept.
fn interpret(ctx: &Context, schedule: ScheduleOp) -> BTreeMap<String, Vec<f64>> {
    let mut memory = Memory::new();
    for buffer in schedule.internal_buffers(ctx) {
        let name = buffer.name(ctx);
        if name.ends_with("_dup") {
            continue; // filled by the inserted copy node
        }
        let shape = buffer.shape(ctx);
        let fill = name_fill(&name);
        memory.init(buffer.value(ctx), &shape, fill);
        for i in 0..shape.iter().copied().min().unwrap_or(1) {
            let diagonal: Vec<i64> = shape.iter().map(|_| i).collect();
            memory.store(buffer.value(ctx), &diagonal, fill + 0.0625 * i as f64);
        }
    }
    hida::sim::interpret_schedule(ctx, schedule, &mut memory);
    let mut deepest: BTreeMap<String, (usize, Vec<f64>)> = BTreeMap::new();
    for buffer in schedule.internal_buffers(ctx) {
        let Some(data) = memory.contents(buffer.value(ctx)) else {
            continue;
        };
        let name = buffer.name(ctx);
        let base = name.trim_end_matches("_dup");
        let dups = (name.len() - base.len()) / "_dup".len();
        if deepest.get(base).is_none_or(|(best, _)| dups > *best) {
            deepest.insert(base.to_string(), (dups, data.to_vec()));
        }
    }
    deepest.into_iter().map(|(k, (_, v))| (k, v)).collect()
}

/// The functional oracle: the interpreter must compute the same buffers from
/// the minimal `construct,lower` lowering of `workload` and from the full
/// pipeline `compiler` runs (1e-6 relative), and the comparison must not be
/// vacuous. Returns the time spent interpreting.
pub fn oracle_agrees(compiler: &Compiler, workload: &Workload) -> Result<Duration, String> {
    let name = workload.name();
    let lower = |c: &Compiler| {
        c.lower(workload.clone())
            .map_err(|e| format!("{name}: oracle lowering failed: {e}"))
    };
    let baseline = lower(&compiler.clone().with_pipeline("construct,lower"))?;
    let optimized = lower(compiler)?;
    let start = Instant::now();
    let expected = interpret(&baseline.ctx, baseline.schedule);
    let actual = interpret(&optimized.ctx, optimized.schedule);
    let spent = start.elapsed();

    let (mut compared, mut nonzero) = (0, false);
    for (buffer, want) in &expected {
        let Some(got) = actual.get(buffer) else {
            continue;
        };
        compared += 1;
        if want.len() != got.len() {
            return Err(format!("{name}: oracle: buffer '{buffer}' changed size"));
        }
        for (i, (&e, &a)) in want.iter().zip(got).enumerate() {
            nonzero |= e != 0.0;
            if (e - a).abs() > 1e-6 * e.abs().max(a.abs()).max(1.0) {
                return Err(format!(
                    "{name}: oracle: '{buffer}'[{i}] is {a} after optimization, {e} before"
                ));
            }
        }
    }
    if compared == 0 || !nonzero {
        return Err(format!(
            "{name}: oracle is vacuous ({compared} buffers compared, nonzero={nonzero})"
        ));
    }
    Ok(spent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida::{Model, PolybenchKernel};

    fn mlp() -> CompilationResult {
        Compiler::dnn_defaults()
            .compile(Workload::Model(Model::Mlp))
            .expect("mlp compiles")
    }

    #[test]
    fn shipped_rules_parse_and_hold_on_a_real_design() {
        let rules = parse_rules(CPP_SHAPE_RULES).expect("shipped rules parse");
        assert!(rules.contains(&Rule::Contains("#pragma HLS dataflow".to_string())));
        assert!(rules.contains(&Rule::Balanced('{', '}')));
        let mut checks = Checks::default();
        checks.record(shape_holds(&rules, "mlp", &mlp()));
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        assert_eq!(checks.failed_share(), 0.0);
    }

    #[test]
    fn a_corrupted_expectation_makes_failed_share_positive() {
        let corrupted = CPP_SHAPE_RULES.replace("#pragma HLS dataflow", "#pragma HLS dataflowX");
        assert_ne!(corrupted, CPP_SHAPE_RULES);
        let rules = parse_rules(&corrupted).expect("still well-formed");
        let mut checks = Checks::default();
        checks.record(shape_holds(&rules, "mlp", &mlp()));
        checks.record(Ok(()));
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert!(checks.failed_share() > 0.0);
        assert!(
            checks.messages[0].contains("dataflowX"),
            "{:?}",
            checks.messages
        );
    }

    #[test]
    fn malformed_rule_files_are_rejected() {
        assert!(parse_rules("contains").is_err());
        assert!(parse_rules("balanced {").is_err());
        assert!(parse_rules("frobnicate x").is_err());
        assert!(parse_rules("# only a comment\n").is_err());
    }

    #[test]
    fn balanced_rejects_early_closers() {
        assert!(balanced("{ a { b } }", '{', '}'));
        assert!(!balanced("} {", '{', '}'));
        assert!(!balanced("{ {", '{', '}'));
    }

    #[test]
    fn digest_separates_designs_and_repeats_for_one() {
        let a = digest_of(&mlp());
        assert_eq!(a, digest_of(&mlp()));
        let lenet = Compiler::dnn_defaults()
            .compile(Workload::Model(Model::LeNet))
            .expect("lenet compiles");
        assert_ne!(a.hash, digest_of(&lenet).hash);
        assert!(same_design("mlp", &mlp(), &mlp()).is_ok());
        assert!(same_design("mlp/lenet", &mlp(), &lenet).is_err());
    }

    #[test]
    fn oracle_accepts_a_small_kernel_and_detects_a_wrong_lowering() {
        let workload = Workload::PolybenchSized(PolybenchKernel::Atax, 8);
        oracle_agrees(&Compiler::polybench_defaults(), &workload).expect("atax agrees");
        // A "full pipeline" that cannot even lower is reported, not panicked on.
        let broken = Compiler::polybench_defaults().with_pipeline("construct");
        assert!(oracle_agrees(&broken, &workload).is_err());
    }
}
