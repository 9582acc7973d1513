//! Per-layer attribution, measured from outside: the traced pass replays
//! `Compiler::compile_func`'s sequence through each layer's public functions
//! with a span around every call, and reads the counters those functions
//! already return (`Pipeline::statistics()`, estimator cache stats, ...).
//! Nothing inside the compiler is instrumented.

use crate::checks::{digest_of_parts, Digest};
use crate::stats;
use crate::trace::Tracer;
use hida::estimator::dataflow::DataflowEstimator;
use hida::estimator::latency::NodeEstimate;
use hida::estimator::shared_cache::{device_fingerprint, estimate_key};
use hida::estimator::surrogate::design_bound;
use hida::ir::fingerprint::{structural_fingerprint, Fingerprint};
use hida::ir::printer::print_op;
use hida::ir::Context;
use hida::{build_workload, registry, HidaOptions, Pipeline, SharedEstimateCache, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// The seven passes of the standard flow: registry name and report name.
pub const PASSES: [(&str, &str); 7] = [
    ("hida-construct-dataflow", "construct"),
    ("hida-task-fusion", "fusion"),
    ("hida-lower-structural", "lower"),
    ("hida-eliminate-multi-producers", "multi-producer-elim"),
    ("hida-tiling", "tiling"),
    ("hida-balance-data-paths", "balance"),
    ("hida-parallelize", "parallelize"),
];

/// Every per-layer metric with its unit, in report order. Each workload
/// reports all of them; one that does not apply to a workload reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("frontend.build_us", "us"),
        ("frontend.ops_built", "count"),
        ("ir.parse_us", "us"),
        ("ir.parse_mb_per_s", "MB/s"),
        ("ir.verify_us", "us"),
        ("ir.fingerprint_us", "us"),
        ("ir.print_us", "us"),
        ("ir.par_empty_batch_us", "us"),
        ("ir.par_workers", "count"),
        ("ir.par_steals", "count"),
        ("opt.pipeline_parse_us", "us"),
        ("opt.pipeline_run_us", "us"),
        ("opt.pipeline_overhead_us", "us"),
        ("opt.analysis_hits", "count"),
        ("opt.analysis_misses", "count"),
        ("opt.analysis_invalidations", "count"),
        ("opt.analysis_hit_ratio", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (_, pass) in PASSES {
        names.push((format!("opt.pass_us.{pass}"), "us"));
    }
    for (_, pass) in PASSES {
        names.push((format!("opt.ops_after.{pass}"), "count"));
    }
    names.extend(
        [
            ("estimator.dataflow_us", "us"),
            ("estimator.sequential_us", "us"),
            ("estimator.node_cache_hit_ratio", "ratio"),
            ("estimator.shared_hits", "count"),
            ("estimator.shared_misses", "count"),
            ("estimator.shared_hit_ratio", "ratio"),
            ("estimator.surrogate_us", "us"),
            ("estimator.store_hits", "count"),
            ("estimator.store_misses", "count"),
            ("estimator.store_writes", "count"),
            ("estimator.store_load_us_per_entry", "us"),
            ("estimator.store_save_us_per_entry", "us"),
            ("estimator.store_disk_kb", "KiB"),
            ("emitter.emit_us", "us"),
            ("emitter.cpp_bytes", "count"),
            ("core.compile_us", "us"),
            ("core.compile_unattributed_us", "us"),
            ("core.sweep_point_ms_sum", "ms"),
            ("core.sweep_parallel_efficiency", "ratio"),
            ("core.sweep_pool_steals", "count"),
            ("core.sweep_pool_imbalance", "count"),
            ("core.explore_compiled_share", "ratio"),
            ("core.explore_pruned", "count"),
            ("core.explore_frontier_coverage", "ratio"),
            ("core.explore_lower_us", "us"),
            ("core.explore_vs_exhaustive_ratio", "ratio"),
            ("sim.interpret_us", "us"),
            ("trace.overhead_ratio", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    names
}

/// Samples of every per-layer metric, kept apart by subject so that a slow
/// subject's samples never crowd a fast one's out of the median.
#[derive(Debug)]
pub struct Layers {
    samples: BTreeMap<String, BTreeMap<usize, Vec<f64>>>,
    /// The machine's slowdown right now (see `calibrate`); durations are
    /// divided by it as they are added.
    slowdown: f64,
}

impl Default for Layers {
    fn default() -> Layers {
        Layers {
            samples: BTreeMap::new(),
            slowdown: 1.0,
        }
    }
}

impl Layers {
    /// Sets the slowdown that durations added from now on are divided by.
    pub fn set_slowdown(&mut self, slowdown: f64) {
        self.slowdown = slowdown;
    }

    /// Adds a duration, speed-corrected. (The trace file keeps raw times.)
    pub fn add_duration(&mut self, metric: &str, subject: usize, duration: f64) {
        self.add(metric, subject, duration / self.slowdown);
    }

    /// Adds `amount / duration`, with the duration speed-corrected.
    pub fn add_rate(&mut self, metric: &str, subject: usize, amount: f64, duration: f64) {
        self.add(
            metric,
            subject,
            stats::ratio(amount, duration / self.slowdown),
        );
    }

    /// Adds a count, or anything else that is not a duration.
    pub fn add(&mut self, metric: &str, subject: usize, value: f64) {
        // Thousands of samples per metric: build the key only the first time.
        if !self.samples.contains_key(metric) {
            self.samples.insert(metric.to_string(), BTreeMap::new());
        }
        if let Some(by_subject) = self.samples.get_mut(metric) {
            by_subject.entry(subject).or_default().push(value);
        }
    }

    /// The metric per op over the subject mix: the median within each
    /// subject, then the mean across subjects; 0 when never sampled.
    pub fn value(&self, metric: &str) -> f64 {
        match self.samples.get(metric) {
            None => 0.0,
            Some(by_subject) => {
                let medians: Vec<f64> = by_subject.values().map(|v| stats::median(v)).collect();
                stats::mean(&medians)
            }
        }
    }

    /// Every sample of `metric` added together (for ratios of counters).
    pub fn total(&self, metric: &str) -> f64 {
        self.samples
            .get(metric)
            .map_or(0.0, |s| s.values().flatten().sum())
    }
}

/// One compile to replay: what `Compiler` would be configured with.
pub struct CompileSpec<'a> {
    /// Names the op in the trace.
    pub subject: &'a str,
    pub workload: &'a Workload,
    pub options: &'a HidaOptions,
    pub pipeline: Option<&'a str>,
    pub jobs: usize,
    pub shared: Option<&'a Arc<SharedEstimateCache>>,
}

/// Replays one compilation layer by layer, recording spans into `tracer` and
/// samples into `layers` under `subject`. Returns the digest of what it
/// produced, which the caller compares with `Compiler::compile`'s. When
/// `node_estimates` is given, every node's store key and estimate is added
/// to it (input for the direct `EstimateStore` load/save timing).
pub fn traced_compile(
    tracer: &mut Tracer,
    layers: &mut Layers,
    subject: usize,
    spec: &CompileSpec,
    node_estimates: Option<&mut BTreeMap<Fingerprint, NodeEstimate>>,
) -> Result<Digest, String> {
    let first_span = tracer.next_op(spec.subject);
    let compile = tracer.begin("core.compile");
    let mut ctx = Context::new();

    let text_bytes = match spec.workload {
        Workload::TextIr { text, .. } => Some(text.len()),
        _ => None,
    };
    let front = tracer.begin(if text_bytes.is_some() {
        "ir.parse"
    } else {
        "frontend.build"
    });
    let built = build_workload(&mut ctx, spec.workload.clone());
    tracer.end(front);
    let (module, func) = built.map_err(|e| e.to_string())?;
    let ops_built = ctx.num_live_ops();

    let parse = tracer.begin("opt.pipeline_parse");
    let pipeline = match spec.pipeline {
        Some(text) => Pipeline::parse(&registry(), text).map_err(|e| e.to_string()),
        None => Ok(Pipeline::from_options(spec.options)),
    };
    tracer.end(parse);
    let mut pipeline = pipeline?.with_jobs(spec.jobs);

    let run = tracer.begin("opt.pipeline_run");
    let schedule = pipeline.run(&mut ctx, func);
    tracer.end(run);
    let schedule = schedule.map_err(|e| e.to_string())?;
    // The pass manager reports each pass's duration but not its start: lay
    // the passes end to end inside the run span. What is left of the run
    // span is inter-pass verification and bookkeeping.
    let mut at = tracer.spans()[run].start_us;
    for stat in pipeline.statistics() {
        let name = format!("opt.pass.{}", short_pass_name(&stat.pass));
        at = tracer.synthesized_child(run, &name, at, stat.micros as f64);
    }

    tracer
        .scope("ir.verify", || hida::ir::verifier::verify(&ctx, module))
        .map_err(|e| e.to_string())?;

    let mut estimator = DataflowEstimator::new(spec.options.device.clone()).with_jobs(spec.jobs);
    if let Some(cache) = spec.shared {
        estimator = estimator.with_shared_cache(Arc::clone(cache));
    }
    let estimate = tracer.scope("estimator.dataflow", || {
        estimator.estimate_schedule(&ctx, schedule, true)
    });
    let sequential = tracer.scope("estimator.sequential", || {
        estimator.estimate_schedule(&ctx, schedule, false)
    });
    let cpp = tracer.scope("emitter.emit", || {
        hida::emitter::emit_schedule(&ctx, schedule)
    });
    tracer.end(compile);
    let digest = digest_of_parts(&cpp, &estimate, &sequential);

    // Off the compile path: costs a sweep (fingerprint, surrogate) or
    // `--emit-ir` (print) pays on the same IR.
    let probes = tracer.begin("probes");
    tracer.scope("ir.fingerprint", || {
        black_box(structural_fingerprint(&ctx, module))
    });
    tracer.scope("ir.print", || black_box(print_op(&ctx, module).len()));
    tracer.scope("estimator.surrogate", || {
        black_box(design_bound(&ctx, schedule, &spec.options.device, None))
    });
    tracer.end(probes);

    // Counters the layers returned.
    layers.add("frontend.ops_built", subject, ops_built as f64);
    layers.add("emitter.cpp_bytes", subject, cpp.len() as f64);
    let mut analysis = hida::AnalysisCacheStats::default();
    let (mut workers, mut steals) = (1_usize, 0_u64);
    for stat in pipeline.statistics() {
        let pass = short_pass_name(&stat.pass);
        layers.add(
            &format!("opt.ops_after.{pass}"),
            subject,
            stat.live_ops_after as f64,
        );
        analysis.accumulate(&stat.cache);
        if let Some(parallel) = &stat.parallel {
            workers = workers.max(parallel.workers);
            steals += parallel.steals;
        }
    }
    let estimator_pool = estimator.parallel_stats();
    layers.add(
        "ir.par_workers",
        subject,
        workers.max(estimator_pool.workers) as f64,
    );
    layers.add(
        "ir.par_steals",
        subject,
        (steals + estimator_pool.steals) as f64,
    );
    layers.add("opt.analysis_hits", subject, analysis.hits as f64);
    layers.add("opt.analysis_misses", subject, analysis.misses as f64);
    layers.add(
        "opt.analysis_invalidations",
        subject,
        analysis.invalidations as f64,
    );
    let node_cache = estimator.cache_stats();
    layers.add("estimator.node_cache_hits", subject, node_cache.hits as f64);
    layers.add(
        "estimator.node_cache_queries",
        subject,
        node_cache.total_queries() as f64,
    );
    if let Some(out) = node_estimates {
        let device = device_fingerprint(&spec.options.device);
        for node in schedule.nodes(&ctx) {
            let key = estimate_key(&ctx, node.id(), device);
            out.entry(key)
                .or_insert_with(|| estimator.estimate_node(&ctx, node));
        }
    }

    let drop_span = tracer.begin("core.drop");
    drop((pipeline, estimator, estimate, sequential, cpp, ctx));
    tracer.end(drop_span);

    // Fold this op's spans into the samples.
    let own = tracer.self_times_us(first_span);
    let mut compile_us = 0.0;
    let mut unattributed_us = 0.0;
    for (span, own_us) in tracer.spans()[first_span..].iter().zip(own) {
        let dur = span.dur_us();
        match span.name.as_str() {
            "core.compile" => {
                compile_us += dur;
                unattributed_us += own_us;
            }
            "core.drop" => {
                compile_us += dur;
                unattributed_us += dur;
            }
            "frontend.build" => layers.add_duration("frontend.build_us", subject, dur),
            "ir.parse" => {
                layers.add_duration("ir.parse_us", subject, dur);
                if let Some(bytes) = text_bytes {
                    // bytes per microsecond is MB/s
                    layers.add_rate("ir.parse_mb_per_s", subject, bytes as f64, dur);
                }
            }
            "opt.pipeline_parse" => layers.add_duration("opt.pipeline_parse_us", subject, dur),
            "opt.pipeline_run" => {
                layers.add_duration("opt.pipeline_run_us", subject, dur);
                layers.add_duration("opt.pipeline_overhead_us", subject, own_us);
            }
            "ir.verify" => layers.add_duration("ir.verify_us", subject, dur),
            "ir.fingerprint" => layers.add_duration("ir.fingerprint_us", subject, dur),
            "ir.print" => layers.add_duration("ir.print_us", subject, dur),
            "estimator.dataflow" => layers.add_duration("estimator.dataflow_us", subject, dur),
            "estimator.sequential" => layers.add_duration("estimator.sequential_us", subject, dur),
            "estimator.surrogate" => layers.add_duration("estimator.surrogate_us", subject, dur),
            "emitter.emit" => layers.add_duration("emitter.emit_us", subject, dur),
            name => {
                if let Some(pass) = name.strip_prefix("opt.pass.") {
                    layers.add_duration(&format!("opt.pass_us.{pass}"), subject, dur);
                }
            }
        }
    }
    layers.add_duration("core.compile_us", subject, compile_us);
    layers.add("core.compile_raw_us", subject, compile_us);
    layers.add_duration("core.compile_unattributed_us", subject, unattributed_us);
    Ok(digest)
}

fn short_pass_name(registry_name: &str) -> &str {
    PASSES
        .iter()
        .find(|(full, _)| *full == registry_name)
        .map_or(registry_name, |(_, short)| short)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::digest_of;
    use hida::{Compiler, Model};

    #[test]
    fn every_per_layer_name_is_declared_in_benchmark_json() {
        let declared = include_str!("../../BENCHMARK.json");
        let names = per_layer_names();
        for (name, unit) in &names {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let per_layer = declared
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer key");
        assert_eq!(per_layer.matches("\"name\"").count(), names.len());
        assert!(names.len() <= 128);
    }

    #[test]
    fn layers_take_the_median_per_subject_then_the_mean() {
        let mut layers = Layers::default();
        for v in [1.0, 2.0, 300.0] {
            layers.add("x", 0, v);
        }
        for v in [10.0, 20.0, 30.0] {
            layers.add("x", 1, v);
        }
        // Durations are divided by the slowdown in force; counts are not.
        layers.set_slowdown(2.0);
        layers.add_duration("x", 1, 40.0);
        layers.add_duration("x", 1, 40.0);
        assert_eq!(layers.value("x"), 11.0);
        assert_eq!(layers.total("x"), 403.0);
        assert_eq!(layers.value("never"), 0.0);
        assert_eq!(layers.total("never"), 0.0);
    }

    #[test]
    fn the_replayed_compile_equals_compiler_compile() {
        let workload = Workload::Model(Model::Mlp);
        let options = HidaOptions::dnn();
        let expected = digest_of(
            &Compiler::new(options.clone())
                .compile(workload.clone())
                .expect("mlp compiles"),
        );
        let (mut tracer, mut layers) = (Tracer::new(), Layers::default());
        let spec = CompileSpec {
            subject: "mlp",
            workload: &workload,
            options: &options,
            pipeline: None,
            jobs: 1,
            shared: None,
        };
        let mut nodes = BTreeMap::new();
        let got = traced_compile(&mut tracer, &mut layers, 0, &spec, Some(&mut nodes))
            .expect("replay succeeds");
        assert_eq!(got, expected);
        assert!(!nodes.is_empty());
        // Spans nest under the compile span and the parts add up.
        let spans = tracer.spans();
        assert_eq!(spans[0].name, "core.compile");
        assert!(spans.iter().any(|s| s.name == "opt.pass.parallelize"));
        let compile = layers.value("core.compile_us");
        let attributed: f64 = [
            "frontend.build_us",
            "opt.pipeline_parse_us",
            "opt.pipeline_run_us",
            "ir.verify_us",
            "estimator.dataflow_us",
            "estimator.sequential_us",
            "emitter.emit_us",
        ]
        .iter()
        .map(|m| layers.value(m))
        .sum();
        let unattributed = layers.value("core.compile_unattributed_us");
        assert!(
            (compile - attributed - unattributed).abs() < 1.0,
            "{compile} {attributed} {unattributed}"
        );
        assert!(layers.value("frontend.ops_built") > 0.0);
        assert!(layers.value("opt.ops_after.parallelize") > 0.0);
    }
}
