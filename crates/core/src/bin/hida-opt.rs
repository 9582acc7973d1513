//! `hida-opt` — run textual HIDA-OPT pass pipelines over a workload.
//!
//! The CLI counterpart of `Pipeline::parse`: ablations are command-line strings
//! instead of recompiled bench binaries.
//!
//! ```text
//! hida-opt --list-passes
//! hida-opt --workload two_mm \
//!     --pipeline "construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize"
//! hida-opt --workload lenet --preset dnn
//! hida-opt --workload resnet-18 --sweep variants.txt --jobs 8
//! hida-opt --input examples/two_mm.hir --explore variants.txt
//! ```
//!
//! A single run goes through `Compiler::lower_func` and `Compiler::finish`,
//! printing the normalized pipeline, per-pass statistics, the schedule and its
//! QoR in between. `--sweep` and `--explore` share one driver: every line of
//! the file is a design point for `SweepEngine::run` or `Explorer::explore`.

use hida::report::Json;
use hida::sweep::{isolated, SweepEngine, SweepPoint, SweepPointOutcome};
use hida::{
    json_fields, json_object, EstimateStore, ExploreConfig, ExploreOutcome, Explorer, Frontier,
    PersistentStoreStats, SharedCacheStats, SharedEstimateCache, Workload,
};
use hida_dialects::analysis::ComputeProfile;
use hida_estimator::device::FpgaDevice;
use hida_frontend::nn::Model;
use hida_frontend::polybench::PolybenchKernel;
use hida_ir_core::fault::{self, CancelToken, FaultPlan};
use hida_ir_core::pass::PassStatistics;
use hida_ir_core::{Analysis, AnalysisCacheStats, Context};
use hida_opt::registry::{registry, registry_listing};
use hida_opt::{HidaOptions, Pipeline};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const USAGE: &str = "\
usage: hida-opt [OPTIONS]

  --workload <name>     workload to compile (see --list-workloads); accepts
                        paper names (2mm, resnet-18) and identifiers (two_mm)
  --input <file.hir>    compile a module from textual IR instead of a built-in
                        workload (exclusive with --workload; grammar in
                        docs/IR_SYNTAX.md). The file's first func.func is the
                        workload function; works with --pipeline, --sweep and
                        --explore alike
  --emit-ir <file>      write the workload module as textual IR before the
                        pipeline runs (single compilations only); the output
                        re-parses with --input to the same design
  --pipeline <text>     textual pass pipeline, e.g.
                        \"construct,fusion,lower,tiling{factor=4},parallelize\"
  --preset <name>       pipeline preset when --pipeline is omitted:
                        default | polybench | dnn
  --sweep <file>        run every non-empty, non-# line of <file> as an
                        independent pipeline variant of the workload: the
                        design points compile concurrently on the sweep pool,
                        run the passes their lines have in common once, and
                        share per-node QoR estimates through the
                        cross-compilation cache, keyed by what the node model
                        reads (its inputs and the device), so nodes the model
                        cannot tell apart are evaluated once; each point
                        reports what it would report compiled alone
  --explore <file>      guided design-space exploration over the same sweep
                        grammar: pipeline lines span a knob lattice, and a
                        Pareto-frontier explorer compiles only candidates
                        whose surrogate QoR bound is not already dominated.
                        An optional first line configures the search:
                        explore{budget=N,seed=N,objectives=throughput+dsp+bram,
                        extras=N,max-generations=N}. Exploration order is
                        deterministic for a fixed seed at any --jobs
  --size <n>            PolyBench problem size (default: the kernel's own)
  --jobs <n>            concurrent design points of a --sweep/--explore
                        (default: available parallelism; 1 = one point at a
                        time, in file order); a single compile is
                        single-threaded
  --device <name>       device for QoR estimation: pynq-z2 | zu3eg | vu9p-slr
                        (default: the pipeline's parallelize device, else
                        vu9p-slr)
  --cache-dir <path>    persist per-node QoR estimates, under the same keys,
                        in a store under <path> (created if missing): this run
                        reuses estimates written by earlier processes sharing
                        the directory, and publishes its own as one segment
                        file when it ends; a run that computes nothing new
                        writes nothing; corrupt segments and segments of an
                        older store format are removed and read as misses,
                        never as errors
  --cache-limit-mb <n>  size budget for --cache-dir in megabytes; a publish
                        past the budget evicts whole segments, oldest
                        published first (reads refresh nothing)
  --deadline-ms <n>     per-point wall-clock deadline in milliseconds: a point
                        that exceeds it is cancelled at the next checkpoint
                        and reported as timed-out; under --sweep the run
                        continues with the remaining points
  --retries <n>         retry failed sweep/explore points up to <n> times with
                        degraded settings (verification forced on, shared
                        cache bypassed); a point that never converges
                        reports its full attempt history
  --run-budget-ms <n>   whole-run wall-clock budget under --sweep: when it
                        expires, in-flight points are cancelled at their next
                        checkpoint and remaining retries are skipped
  --inject-faults <s>   deterministic chaos testing: arm faults at named sites
                        from a seeded plan, e.g.
                        \"seed=7,pass-panic=1,store-read=1,stall=1,stall-ms=200\"
                        (add 'transient' to fire faults only on the first
                        attempt, so --retries can recover the point); which
                        points fault depends only on the seed and the point
                        labels, never on --jobs
  --no-verify           skip inter-pass IR verification
  --no-timing           omit timing and machine/state-dependent counters
                        (pass micros, jobs, cache traffic, wall-clock) and the
                        end-of-run summary lines so the report is byte-stable
                        across runs and job counts — what CI diffs for
                        determinism
  --stats-json          emit per-pass statistics (timing, op deltas, analysis
                        + estimator cache hits/misses; under --sweep, the
                        per-point QoR and aggregated cross-compilation cache
                        counters) as one JSON object on stdout; the
                        human-readable report moves to stderr
  --list-passes         print the pass registry and exit
  --list-workloads      print the known workloads and exit
  --help                print this help and exit";

/// Lowercased name with separators removed, so `two_mm`, `TwoMm` and `2mm`
/// collapse onto comparable keys.
fn normalize(name: &str) -> String {
    name.to_lowercase()
        .chars()
        .filter(|c| *c != '-' && *c != '_')
        .collect()
}

/// Additional spellings accepted for kernels whose paper name starts with a digit.
fn kernel_aliases(kernel: PolybenchKernel) -> &'static [&'static str] {
    match kernel {
        PolybenchKernel::TwoMm => &["twomm"],
        PolybenchKernel::ThreeMm => &["threemm"],
        _ => &[],
    }
}

fn workload_listing() -> String {
    let kernels: Vec<&str> = PolybenchKernel::all().iter().map(|k| k.name()).collect();
    let models: Vec<&str> = Model::all().iter().map(|m| m.name()).collect();
    format!(
        "PolyBench kernels: {}\nDNN models:        {}",
        kernels.join(", "),
        models.join(", ")
    )
}

/// What the CLI was asked to compile, resolved from `--workload` / `--input`.
struct Source {
    /// The name reported in JSON output: the raw `--workload` spelling (what
    /// the user typed, kept byte-stable) or the `--input` file stem.
    name: String,
    workload: Workload,
    /// The human-readable report line describing the workload.
    line: String,
}

/// Resolves `--workload`/`--input` (exclusive) into a compile source.
///
/// `--input` files are parsed here so syntax errors surface with line/column
/// before any compilation machinery spins up.
fn resolve_source(args: &Args) -> Result<Source, String> {
    match (&args.input, &args.workload) {
        (Some(_), Some(_)) => Err("--input and --workload are exclusive".to_string()),
        (Some(path), None) => {
            if args.size.is_some() {
                return Err("--size applies to built-in workloads, not --input".to_string());
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("--input: cannot read '{path}': {e}"))?;
            hida_ir_core::parse_module(&text).map_err(|e| format!("--input '{path}': {e}"))?;
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("input")
                .to_string();
            Ok(Source {
                line: format!("workload: {name} (textual IR)"),
                workload: Workload::text_ir(name.clone(), text),
                name,
            })
        }
        (None, Some(name)) => {
            let key = normalize(name);
            let kernel = PolybenchKernel::all()
                .into_iter()
                .find(|&k| normalize(k.name()) == key || kernel_aliases(k).contains(&key.as_str()));
            let model = Model::all()
                .into_iter()
                .find(|m| normalize(m.name()) == key);
            let (workload, line) = match (kernel, model) {
                (Some(kernel), _) => {
                    let size = args.size.unwrap_or_else(|| kernel.default_size());
                    (
                        Workload::PolybenchSized(kernel, size),
                        format!("workload: {} (PolyBench, size {size})", kernel.name()),
                    )
                }
                (None, Some(model)) => (
                    Workload::Model(model),
                    format!("workload: {} (DNN model)", model.name()),
                ),
                (None, None) => {
                    return Err(format!("unknown workload '{name}'\n{}", workload_listing()))
                }
            };
            Ok(Source {
                name: name.clone(),
                workload,
                line,
            })
        }
        (None, None) => Err("missing --workload or --input (try --list-workloads)".to_string()),
    }
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    input: Option<String>,
    emit_ir: Option<String>,
    pipeline: Option<String>,
    preset: Option<String>,
    sweep: Option<String>,
    explore: Option<String>,
    size: Option<i64>,
    jobs: Option<usize>,
    device: Option<String>,
    cache_dir: Option<String>,
    cache_limit_mb: Option<u64>,
    deadline_ms: Option<u64>,
    retries: Option<usize>,
    run_budget_ms: Option<u64>,
    inject_faults: Option<String>,
    no_verify: bool,
    no_timing: bool,
    stats_json: bool,
    list_passes: bool,
    list_workloads: bool,
    help: bool,
}

/// Parses the integer value of `flag`.
fn int_value<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: '{raw}' is not an integer"))
}

/// Parses the integer value of `flag`, which must be at least 1.
fn positive<T: FromStr + PartialOrd + From<u8>>(flag: &str, raw: &str) -> Result<T, String> {
    let value: T = int_value(flag, raw)?;
    if value < T::from(1) {
        return Err(format!("{flag}: must be >= 1"));
    }
    Ok(value)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--input" => args.input = Some(value()?),
            "--emit-ir" => args.emit_ir = Some(value()?),
            "--pipeline" => args.pipeline = Some(value()?),
            "--preset" => args.preset = Some(value()?),
            "--sweep" => args.sweep = Some(value()?),
            "--explore" => args.explore = Some(value()?),
            "--size" => {
                let size: i64 = int_value(arg, &value()?)?;
                if size < 4 {
                    return Err(format!("--size: {size} must be >= 4"));
                }
                args.size = Some(size);
            }
            "--jobs" => args.jobs = Some(positive(arg, &value()?)?),
            "--device" => args.device = Some(value()?),
            "--cache-dir" => args.cache_dir = Some(value()?),
            "--cache-limit-mb" => args.cache_limit_mb = Some(positive(arg, &value()?)?),
            "--deadline-ms" => args.deadline_ms = Some(positive(arg, &value()?)?),
            "--retries" => args.retries = Some(int_value(arg, &value()?)?),
            "--run-budget-ms" => args.run_budget_ms = Some(positive(arg, &value()?)?),
            "--inject-faults" => args.inject_faults = Some(value()?),
            "--no-verify" => args.no_verify = true,
            "--no-timing" => args.no_timing = true,
            "--stats-json" => args.stats_json = true,
            "--list-passes" => args.list_passes = true,
            "--list-workloads" => args.list_workloads = true,
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn preset_text(preset: &str) -> Result<String, String> {
    let options = match preset {
        "default" => HidaOptions::default(),
        "polybench" => HidaOptions::polybench(),
        "dnn" => HidaOptions::dnn(),
        other => {
            return Err(format!(
                "unknown preset '{other}' (default, polybench, dnn)"
            ))
        }
    };
    Ok(options.pipeline_text())
}

/// Set once from `--stats-json`: stdout then carries exactly one JSON object
/// and the human-readable report moves to stderr, so
/// `hida-opt --stats-json | jq .` works as documented.
static REPORT_ON_STDERR: AtomicBool = AtomicBool::new(false);

/// Prints one line of the human-readable report.
macro_rules! say {
    ($($fmt:tt)*) => {
        if REPORT_ON_STDERR.load(Ordering::Relaxed) {
            eprintln!($($fmt)*)
        } else {
            println!($($fmt)*)
        }
    };
}

fn analysis_cache_json(c: &AnalysisCacheStats) -> Json {
    json_object! {
        "hits": c.hits, "misses": c.misses, "invalidations": c.invalidations,
        "preserved": c.preserved,
    }
}

fn shared_cache_json(c: &SharedCacheStats) -> Json {
    json_object! {
        "hits": c.hits, "misses": c.misses, "entries": c.entries,
        "hit_rate": Json::Fixed(c.hit_rate(), 3),
    }
}

fn persistent_json(p: &PersistentStoreStats) -> Json {
    json_object! {
        "hits": p.hits, "misses": p.misses, "writes": p.writes, "evictions": p.evictions,
        "corrupt": p.corrupt, "write_errors": p.write_errors, "read_errors": p.read_errors,
    }
}

fn pass_json(stat: &PassStatistics) -> Json {
    json_object! {
        "pass": stat.pass.as_str(),
        "micros": stat.micros as u64,
        "live_ops_before": stat.live_ops_before,
        "live_ops_after": stat.live_ops_after,
        "op_delta": stat.op_delta(),
        "verified": stat.verified,
        "failed": stat.failed,
        "cache": analysis_cache_json(&stat.cache),
        "options": Json::array(&stat.options, |o| json_object! {
            "name": o.name.as_str(), "value": o.value.as_str(),
        }),
    }
}

/// The `--stats-json` document of a single compilation (schema:
/// `docs/STATS_SCHEMA.md`). The estimator and cache sections are `null` when
/// the pipeline died before estimation ran.
fn single_json(
    workload: &str,
    pipeline_text: &str,
    statistics: &[PassStatistics],
    estimator_cache: Option<&AnalysisCacheStats>,
    cache: Option<&SharedEstimateCache>,
) -> Json {
    let persistent = cache.and_then(|c| c.persistent_stats());
    json_object! {
        "workload": workload,
        "pipeline": pipeline_text,
        "passes": Json::array(statistics, pass_json),
        "analysis_cache_totals": analysis_cache_json(&PassStatistics::aggregate_cache(statistics)),
        "estimator_cache": Json::option(estimator_cache, analysis_cache_json),
        "shared_cache": Json::option(cache, |c| shared_cache_json(&c.stats())),
        "persistent_cache": Json::option(persistent.as_ref(), persistent_json),
    }
}

/// Which batch driver `--sweep <file>` / `--explore <file>` selected. The mode
/// decides whether a leading `explore{...}` line is accepted and whether the
/// points go to [`SweepEngine::run`] or [`Explorer::explore`]; everything
/// else — reading, point building, engine wiring, reporting — is shared.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Sweep,
    Explore,
}

impl Mode {
    /// `sweep` / `explore`: the flag, the report header and the JSON key.
    fn name(self) -> &'static str {
        match self {
            Mode::Sweep => "sweep",
            Mode::Explore => "explore",
        }
    }
}

/// One point of a batch document. A sweep identifies its points by 0-based
/// `index`, an exploration (which compiles a subset, out of file order) by
/// `label`; every other key is shared.
fn point_json(mode: Mode, index: usize, point: &SweepPointOutcome) -> Json {
    let id = match mode {
        Mode::Sweep => ("index", index.into()),
        Mode::Explore => ("label", point.label.as_str().into()),
    };
    let mut fields = vec![id];
    fields.extend(json_fields! {
        "pipeline": point.pipeline.as_str(), "seconds": Json::Fixed(point.seconds, 6),
    });
    fields.extend(match &point.result {
        Ok(result) => json_fields! {
            "throughput": Json::Fixed(result.estimate.throughput(), 3),
            "dsp": result.estimate.resources.dsp,
            "bram_18k": result.estimate.resources.bram_18k,
            "shared_cache": Json::option(result.shared_estimator_cache.as_ref(), shared_cache_json),
        },
        Err(e) => json_fields! {
            "error": e.to_string().as_str(),
            "reason": point.failure_reason().map_or("Failed", |r| r.name()),
            "attempts": point.attempts,
        },
    });
    Json::Object(fields)
}

/// The `--stats-json` document of a sweep or an exploration (schema:
/// `docs/STATS_SCHEMA.md`): the exploration's is the sweep's extended with
/// the search counters, `seeds`, `generations` and `frontier`.
fn batch_json(mode: Mode, workload: &str, outcome: &ExploreOutcome) -> Json {
    let mut body = json_fields! { "pool_jobs": outcome.budget.pool_jobs };
    if mode == Mode::Explore {
        body.extend(json_fields! {
            "num_candidates": outcome.num_candidates, "probed": outcome.probed,
            "pruned": outcome.pruned, "compiled": outcome.points.len(),
            "compiles_saved": outcome.compiles_saved(),
        });
    }
    body.push(("wall_seconds", Json::Fixed(outcome.wall_seconds, 6)));
    if mode == Mode::Explore {
        body.extend(json_fields! {
            "seeds": Json::array(&outcome.seeds, |s| s.as_str().into()),
            "generations": Json::array(&outcome.generations, |g| json_object! {
                "index": g.index, "proposed": g.proposed, "pruned": g.pruned,
                "compiled": g.compiled, "failed": g.failed, "frontier_size": g.frontier_size,
                "probe_hits": g.probe_hits, "probe_nodes": g.probe_nodes,
            }),
            "frontier": Json::array(outcome.frontier.points(), |p| json_object! {
                "label": p.label.as_str(),
                "pipeline": p.pipeline.as_str(),
                "objectives": Json::array(&p.objectives, |&o| o.into()),
                "throughput": Json::Fixed(p.throughput, 3),
                "dsp": p.dsp, "bram_18k": p.bram_18k, "generation": p.generation,
            }),
        });
    }
    let points = outcome.points.iter().enumerate();
    body.extend(json_fields! {
        "points": Json::array(points, |(i, p)| point_json(mode, i, p)),
        "shared_cache_totals": Json::option(outcome.shared_cache.as_ref(), shared_cache_json),
        "persistent_cache": Json::option(outcome.persistent_cache.as_ref(), persistent_json),
        "prefix": json_object! {
            "passes_run": outcome.prefix.passes_run,
            "passes_reused": outcome.prefix.passes_reused,
            "checkpoints": outcome.prefix.checkpoints,
        },
    });
    Json::Object(vec![
        ("workload", workload.into()),
        (mode.name(), Json::Object(body)),
    ])
}

/// Renders one pass's statistics without timing or cache counters: only
/// fields that are byte-stable across runs survive, so `--no-timing` output
/// can be diffed directly.
fn stable_stat(stat: &PassStatistics) -> String {
    let mut out = format!(
        "{}: ops {} -> {} ({:+})",
        stat.pass,
        stat.live_ops_before,
        stat.live_ops_after,
        stat.op_delta()
    );
    if !stat.options.is_empty() {
        let rendered: Vec<String> = stat.options.iter().map(|o| o.to_string()).collect();
        out.push_str(&format!(" [{}]", rendered.join(", ")));
    }
    if stat.failed {
        out.push_str(" FAILED");
    }
    out
}

fn resolve_device(name: &str) -> Result<FpgaDevice, String> {
    FpgaDevice::by_name(name).ok_or_else(|| {
        let known: Vec<String> = FpgaDevice::catalog().into_iter().map(|d| d.name).collect();
        format!("unknown device '{name}' (known: {})", known.join(", "))
    })
}

/// What the command line fixes before any workload is looked at. Building it
/// checks the flag values (and opens `--cache-dir`), so all of those errors
/// come before the first line of report output.
struct Wiring {
    /// `--jobs`, defaulting to the machine's available parallelism: the
    /// thread total of a batch. A single compilation does not read it.
    jobs: usize,
    /// `--device`, overriding every pipeline's own `parallelize` device.
    device: Option<FpgaDevice>,
    /// `--inject-faults`; a plan that arms nothing collapses to `None` so the
    /// zero-cost fast path stays active.
    plan: Option<FaultPlan>,
    /// The shared estimate cache over `--cache-dir`'s persistent store.
    cache: Option<Arc<SharedEstimateCache>>,
}

fn wire(args: &Args) -> Result<Wiring, String> {
    let plan = match &args.inject_faults {
        Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("--inject-faults: {e}"))?)
            .filter(|plan| !plan.is_empty()),
        None => None,
    };
    if plan.is_some() || args.deadline_ms.is_some() || args.run_budget_ms.is_some() {
        // Injected faults and deadline cancellations unwind by design; keep
        // the default panic hook from spamming stderr with their backtraces.
        fault::silence_expected_panics();
    }
    let cache = match &args.cache_dir {
        Some(dir) => {
            let mut store = EstimateStore::open(dir)
                .map_err(|e| format!("--cache-dir: cannot open store at '{dir}': {e}"))?;
            if let Some(mb) = args.cache_limit_mb {
                store = store.with_limit_bytes(mb * 1024 * 1024);
            }
            Some(Arc::new(SharedEstimateCache::with_store(store)))
        }
        None if args.cache_limit_mb.is_some() => {
            return Err("--cache-limit-mb requires --cache-dir".to_string())
        }
        None => None,
    };
    Ok(Wiring {
        jobs: args.jobs.unwrap_or_else(hida_ir_core::default_jobs),
        device: args.device.as_deref().map(resolve_device).transpose()?,
        plan,
        cache,
    })
}

/// One design point running `text` over `workload`. The text is parsed
/// through the registry here, so a typo fails before anything compiles; QoR
/// is estimated against `--device`, else the device the pipeline's last
/// `parallelize` pass sized the design for, else vu9p-slr.
fn build_point(
    label: String,
    workload: &Workload,
    text: &str,
    device: Option<&FpgaDevice>,
) -> Result<(SweepPoint, Pipeline), String> {
    let parsed = Pipeline::parse(&registry(), text).map_err(|e| e.to_string())?;
    let sized_for = parsed
        .invocations()
        .iter()
        .rev()
        .find(|i| i.name == "parallelize")
        .and_then(|i| i.options.iter().find(|o| o.name == "device"));
    let device = match (device, sized_for) {
        (Some(device), _) => device.clone(),
        (None, Some(option)) => resolve_device(&option.value)?,
        (None, None) => resolve_device("vu9p-slr")?,
    };
    let options = HidaOptions {
        device,
        ..HidaOptions::default()
    };
    let point = SweepPoint::new(label, workload.clone(), options).with_pipeline(text);
    Ok((point, parsed))
}

/// `--sweep` / `--explore`: every pipeline line of the variants file is an
/// independent design point of the workload. A sweep compiles them all
/// through the sweep engine's pool; an exploration walks the knob lattice
/// they span and compiles only the candidates whose surrogate QoR bound is
/// not already dominated. Both share the cross-compilation estimate cache.
fn run_batch(args: &Args, mode: Mode, path: &str) -> Result<(), String> {
    let flag = format!("--{}", mode.name());
    if args.pipeline.is_some() || args.preset.is_some() {
        return Err(format!("{flag} is exclusive with --pipeline and --preset"));
    }
    if args.emit_ir.is_some() {
        return Err(format!(
            "--emit-ir applies to single compilations, not {flag}"
        ));
    }
    // An exploration is bounded by its `explore{budget=N}` compile count.
    if mode == Mode::Explore && args.run_budget_ms.is_some() {
        return Err("--run-budget-ms applies to --sweep".to_string());
    }
    let wiring = wire(args)?;
    let source = resolve_source(args)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{flag}: cannot read '{path}': {e}"))?;
    let mut lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .collect();
    // An optional leading `explore{...}` line configures the search; every
    // other line is a pipeline variant, exactly as under --sweep.
    let config = match lines.first() {
        Some((line_no, first)) if mode == Mode::Explore && first.starts_with("explore") => {
            let config = ExploreConfig::parse(first)
                .map_err(|e| format!("explore config on line {line_no}: {e}"))?;
            lines.remove(0);
            config
        }
        _ => ExploreConfig::default(),
    };
    if lines.is_empty() {
        return Err(format!("{flag}: '{path}' contains no pipeline variants"));
    }
    let mut points = Vec::new();
    for (index, (line_no, line)) in lines.iter().enumerate() {
        let label = format!("p{:02}", index + 1);
        let (point, _) = build_point(label, &source.workload, line, wiring.device.as_ref())
            .map_err(|e| format!("{} variant on line {line_no}: {e}", mode.name()))?;
        points.push(point);
    }

    let mut engine = SweepEngine::new()
        .with_total_jobs(wiring.jobs)
        .with_verification(!args.no_verify)
        .with_retries(args.retries.unwrap_or(0));
    if let Some(ms) = args.deadline_ms {
        engine = engine.with_deadline_ms(ms);
    }
    if let Some(ms) = args.run_budget_ms {
        engine = engine.with_run_budget_ms(ms);
    }
    if let Some(plan) = wiring.plan {
        engine = engine.with_fault_plan(plan);
    }
    if let Some(cache) = wiring.cache {
        engine = engine.with_cache(cache);
    }

    say!("{}", source.line);
    match mode {
        Mode::Sweep => say!("sweep: {} design points from {path}", points.len()),
        Mode::Explore => {
            let objectives: Vec<&str> = config.objectives.iter().map(|o| o.name()).collect();
            say!("explore: {} candidate points from {path}", points.len());
            let budget = config
                .budget
                .map_or("unbounded".to_string(), |b| b.to_string());
            say!(
                "objectives: {} (seed {}, budget {budget})",
                objectives.join("+"),
                config.seed
            );
        }
    }
    // One budget per batch: a sweep is one batch, an exploration two per
    // generation (the wave's lowerings, then the survivors' finishes).
    if !args.no_timing {
        say!("jobs: {} total per batch of points", wiring.jobs);
    }

    let outcome = match mode {
        Mode::Explore => Explorer::new(config).with_engine(engine).explore(&points)?,
        // A sweep reports as the exploration that compiled every point; the
        // search-only fields stay empty and are never printed.
        Mode::Sweep => {
            let sweep = engine.run(&points);
            ExploreOutcome {
                num_candidates: points.len(),
                probed: points.len(),
                pruned: 0,
                frontier: Frontier::new(),
                generations: Vec::new(),
                seeds: Vec::new(),
                points: sweep.points,
                budget: sweep.budget,
                wall_seconds: sweep.wall_seconds,
                shared_cache: sweep.shared_cache,
                persistent_cache: sweep.persistent_cache,
                prefix: sweep.prefix,
            }
        }
    };

    if mode == Mode::Explore {
        say!("seeds: {}", outcome.seeds.join(", "));
        for generation in &outcome.generations {
            say!("{generation}");
        }
    }
    for (index, point) in outcome.points.iter().enumerate() {
        match mode {
            Mode::Sweep => say!("\npoint {:02}: {}", index + 1, point.pipeline),
            Mode::Explore => say!("\npoint {}: {}", point.label, point.pipeline),
        }
        match &point.result {
            Ok(result) => {
                say!(
                    "  qor: throughput {:.3} samples/s, DSP {}, BRAM-18K {}, LUT {}",
                    result.estimate.throughput(),
                    result.estimate.resources.dsp,
                    result.estimate.resources.bram_18k,
                    result.estimate.resources.lut
                );
                if !args.no_timing {
                    say!(
                        "  time: {:.4}s, shared cache {}",
                        point.seconds,
                        result.shared_estimator_cache.unwrap_or_default()
                    );
                }
            }
            Err(e) => {
                say!("  error: {e}");
                for attempt in point.failure.iter().flat_map(|f| &f.attempts) {
                    say!("  {attempt}");
                }
            }
        }
    }
    if mode == Mode::Explore {
        say!("\n# Pareto frontier ({} points)", outcome.frontier.len());
        for point in outcome.frontier.points() {
            say!("  {point}");
        }
        say!(
            "\nprobed {} of {} candidates: {} pruned by surrogate, {} compiled \
             ({} compilations saved)",
            outcome.probed,
            outcome.num_candidates,
            outcome.pruned,
            outcome.points.len(),
            outcome.compiles_saved()
        );
    }
    if !args.no_timing {
        say!("\n{} wall-clock {:.4}s", mode.name(), outcome.wall_seconds);
        if let Some(cache) = &outcome.shared_cache {
            say!("cross-compilation estimate cache: {cache}");
        }
        if let Some(persistent) = &outcome.persistent_cache {
            say!("persistent estimate store: {persistent}");
        }
        say!(
            "prefix tree: {} passes run, {} reused, {} checkpoints",
            outcome.prefix.passes_run,
            outcome.prefix.passes_reused,
            outcome.prefix.checkpoints
        );
    }
    if args.stats_json {
        println!("{}", batch_json(mode, &source.name, &outcome));
    }
    let failed = outcome.failed_labels();
    if !failed.is_empty() {
        let (count, total) = (failed.len(), outcome.points.len());
        let noun = match mode {
            Mode::Sweep => "sweep",
            Mode::Explore => "compiled",
        };
        say!(
            "\nFAILED: {count} of {total} {noun} points ({})",
            failed.join(", ")
        );
        return Err(format!(
            "{count} of {total} {noun} points failed (see the report above)"
        ));
    }
    Ok(())
}

/// A single compilation: the workload through one pipeline, reported pass by
/// pass, then the schedule and its QoR estimate.
fn run_single(args: &Args) -> Result<(), String> {
    if args.retries.is_some() {
        return Err("--retries applies to --sweep and --explore".to_string());
    }
    if args.run_budget_ms.is_some() {
        return Err("--run-budget-ms applies to --sweep".to_string());
    }
    let pipeline_text = match (&args.pipeline, &args.preset) {
        (Some(_), Some(_)) => return Err("--pipeline and --preset are exclusive".to_string()),
        (Some(text), None) => text.clone(),
        (None, Some(preset)) => preset_text(preset)?,
        (None, None) => preset_text("default")?,
    };
    let wiring = wire(args)?;
    let source = resolve_source(args)?;
    let (point, parsed) = build_point(
        source.name.clone(),
        &source.workload,
        &pipeline_text,
        wiring.device.as_ref(),
    )?;
    if parsed.is_empty() {
        return Err("the pipeline is empty".to_string());
    }
    let pipeline_text = parsed.to_text();
    let device = &point.options.device;
    // With --cache-dir, estimation runs against the persistent store.
    let mut compiler = point.compiler().with_verification(!args.no_verify);
    if let Some(cache) = &wiring.cache {
        compiler = compiler.with_shared_estimates(cache.clone());
    }

    say!("{}", source.line);
    let mut ctx = Context::new();
    let (module, func) =
        hida::build_workload(&mut ctx, source.workload).map_err(|e| e.to_string())?;
    // --emit-ir captures the module as the pipeline will see it: the printed
    // text re-parses (with --input) to a structurally identical design.
    if let Some(path) = &args.emit_ir {
        let text = hida_ir_core::printer::print_op(&ctx, module);
        std::fs::write(path, &text)
            .map_err(|e| format!("--emit-ir: cannot write '{path}': {e}"))?;
        say!("emitted IR: {path}");
    }
    say!("pipeline: {pipeline_text}");

    // The compilation is one fault domain, exactly like a one-point sweep:
    // --deadline-ms bounds it, and --inject-faults assigns its faults to the
    // workload as the run's only label.
    let token = CancelToken::new().child(args.deadline_ms);
    let faults = wiring.plan.as_ref().and_then(|plan| {
        plan.assign(std::slice::from_ref(&source.name))
            .remove(&source.name)
            .map(|kind| plan.arm(kind))
    });
    let site = format!("workload '{}'", source.name);
    isolated(&site, token, faults, || {
        let lowered = compiler.lower_func(ctx, module, func);
        let statistics = match &lowered {
            Ok(design) => &design.pass_statistics,
            Err(failure) => &failure.pass_statistics,
        };
        say!("\n# Per-pass statistics");
        for stat in statistics {
            if args.no_timing {
                say!("{}", stable_stat(stat));
            } else {
                say!("{stat}");
            }
        }
        if !args.no_timing {
            let cache_totals = PassStatistics::aggregate_cache(statistics);
            say!("analysis cache totals: {cache_totals}");
        }
        // A failing pipeline still reports where (and after how long) it died
        // — including the machine-readable statistics, with the estimator
        // section nulled out because estimation never ran.
        let lowered = match lowered {
            Ok(design) => design,
            Err(failure) => {
                if args.stats_json {
                    let stats = &failure.pass_statistics;
                    println!(
                        "{}",
                        single_json(&source.name, &pipeline_text, stats, None, None)
                    );
                }
                return Err(failure.error);
            }
        };

        let (ctx, schedule) = (&lowered.ctx, lowered.schedule);
        say!("\n# Schedule ({} nodes)", schedule.nodes(ctx).len());
        for node in schedule.nodes(ctx) {
            let rank = ComputeProfile::compute(ctx, node.id()).loop_dims.len();
            say!(
                "node {:<24} intensity {:<10} parallel factor {:<5} unroll {:?}",
                node.name(ctx),
                ctx.op(node.id()).attr_int("intensity").unwrap_or(0),
                ctx.op(node.id()).attr_int("parallel_factor").unwrap_or(0),
                hida_dialects::transforms::unroll_factors_of(ctx, node.id(), rank),
            );
        }
        for buffer in schedule.internal_buffers(ctx) {
            let partition = buffer.partition(ctx);
            say!(
                "buffer {:<22} depth {:<3} kind {:<9} partition {:?} ({} banks)",
                buffer.name(ctx),
                buffer.depth(ctx),
                format!("{:?}", buffer.memory_kind(ctx)),
                partition.factors,
                partition.bank_count(),
            );
        }

        let result = compiler.finish(lowered);
        // One segment per run, on disk before the store's counters are read.
        if let Some(cache) = &wiring.cache {
            cache.flush();
        }
        let result = result?;
        let (dataflow, sequential) = (&result.estimate, &result.estimate_sequential);
        say!("\n# QoR estimate ({})", device.name);
        say!(
            "throughput: {:.3} samples/s (dataflow) vs {:.3} samples/s (sequential)",
            dataflow.throughput(),
            sequential.throughput()
        );
        say!(
            "resources:  DSP {} / {}, BRAM-18K {} / {}, LUT {} / {}",
            dataflow.resources.dsp,
            device.dsp,
            dataflow.resources.bram_18k,
            device.bram_18k,
            dataflow.resources.lut,
            device.lut
        );
        say!("DSP efficiency: {:.1}%", 100.0 * dataflow.dsp_efficiency());
        if !args.no_timing {
            say!(
                "estimator cache: {} (dataflow + sequential estimates share node estimates)",
                result.estimator_cache
            );
            if let Some(cache) = &wiring.cache {
                say!("shared estimate cache: {}", cache.stats());
                if let Some(persistent) = cache.persistent_stats() {
                    say!("persistent estimate store: {persistent}");
                }
            }
        }
        if args.stats_json {
            println!(
                "{}",
                single_json(
                    &source.name,
                    &pipeline_text,
                    &result.pass_statistics,
                    Some(&result.estimator_cache),
                    wiring.cache.as_deref(),
                )
            );
        }
        Ok(())
    })
    .map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.list_passes {
        print!("{}", registry_listing());
        return ExitCode::SUCCESS;
    }
    if args.list_workloads {
        println!("{}", workload_listing());
        return ExitCode::SUCCESS;
    }
    REPORT_ON_STDERR.store(args.stats_json, Ordering::Relaxed);
    let outcome = match (&args.explore, &args.sweep) {
        (Some(_), Some(_)) => Err("--explore is exclusive with --sweep".to_string()),
        (Some(path), None) => run_batch(&args, Mode::Explore, path),
        (None, Some(path)) => run_batch(&args, Mode::Sweep, path),
        (None, None) => run_single(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
