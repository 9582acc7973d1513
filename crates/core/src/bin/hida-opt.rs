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
//! Every mode compiles through one driver, `SweepEngine::run`, wired once
//! from the command line (verification, `--deadline-ms`, `--inject-faults`,
//! `--cache-dir`). A single run is a one-point run whose outcome is reported
//! as the normalized pipeline, per-pass statistics, the schedule and its QoR;
//! under `--sweep` every line of the file is a design point, and an
//! exploration is that sweep plus the Pareto frontier of its results
//! (`Explorer::explore`).

use hida::report::Json;
use hida::sweep::{classify_failure, SweepEngine, SweepOutcome, SweepPoint, SweepPointOutcome};
use hida::{
    json_fields, json_object, EstimateStore, ExploreConfig, Explorer, Frontier, Objective,
    PersistentStoreStats, SharedEstimateCache, Workload,
};
use hida_dialects::analysis::ComputeProfile;
use hida_dialects::transforms;
use hida_estimator::device::FpgaDevice;
use hida_frontend::nn::Model;
use hida_frontend::polybench::PolybenchKernel;
use hida_ir_core::fault::{self, FaultPlan};
use hida_ir_core::pass::PassStatistics;
use hida_ir_core::{Analysis, AnalysisCacheStats, Context};
use hida_opt::registry::{registry, registry_listing};
use hida_opt::{HidaOptions, Pipeline};
use std::borrow::Cow;
use std::io::{self, Write};
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
  --emit-cpp <file>     write the HLS C++ the compilation emits to <file>
                        (single compilations only)
  --pipeline <text>     textual pass pipeline, e.g.
                        \"construct,fusion,lower,tiling{factor=4},parallelize\"
  --preset <name>       pipeline preset when --pipeline is omitted:
                        default | polybench | dnn
  --sweep <file>        run every non-empty, non-# line of <file> as an
                        independent pipeline variant of the workload: the
                        design points compile concurrently on the sweep pool
                        and run the passes their lines have in common once;
                        each point reports what it would report compiled
                        alone
  --explore <file>      --sweep over the same file, then the Pareto frontier
                        of the compiled points: the report and --stats-json
                        are the sweep's plus the frontier. An optional first
                        line picks the minimized objectives:
                        explore{objectives=throughput+dsp+bram} (the
                        default)
  --size <n>            PolyBench problem size (default: the kernel's own);
                        rejected for DNN models and --input
  --jobs <n>            concurrent design points of a --sweep/--explore
                        (default: available parallelism; 1 = one point at a
                        time, in file order); a single compile is
                        single-threaded
  --device <name>       device for QoR estimation: pynq-z2 | zu3eg | vu9p-slr
                        (default: the pipeline's parallelize device, else
                        vu9p-slr)
  --cache-dir <path>    persist per-node QoR estimates in a store under <path>
                        (created if missing), keyed by what the node model
                        reads (its inputs and the device): this run reuses
                        estimates written by earlier processes sharing the
                        directory, and publishes its own as one segment
                        file when it ends; a run that computes nothing new
                        writes nothing; corrupt segments and segments of an
                        older store format are removed and read as misses,
                        never as errors
  --cache-limit-mb <n>  size budget for --cache-dir in megabytes; a publish
                        past the budget evicts whole segments, oldest
                        published first (reads refresh nothing)
  --deadline-ms <n>     per-point wall-clock deadline in milliseconds: a point
                        that exceeds it is cancelled at the next checkpoint
                        (a pass boundary, or the start of estimation) and
                        reported as timed-out; under --sweep the run
                        continues with the remaining points
  --run-budget-ms <n>   whole-run wall-clock budget of a --sweep/--explore:
                        when it expires, in-flight points are cancelled at
                        their next checkpoint
  --inject-faults <s>   deterministic chaos testing: arm faults at named sites
                        from a seeded plan, e.g.
                        \"seed=7,pass-panic=1,stall=1,stall-ms=200\" (a pass
                        panic fails its point as Panicked; a stall sleeps at
                        compile start and times out under --deadline-ms);
                        which points fault depends only on the seed and the
                        point labels, never on --jobs. A failed point is
                        reported once, with its error and its reason
  --no-verify           skip inter-pass IR verification
  --no-timing           omit timing and machine/state-dependent counters
                        (pass micros, jobs, cache traffic, wall-clock) and the
                        end-of-run summary lines so the report is byte-stable
                        across runs and job counts — what CI diffs for
                        determinism
  --stats-json          emit per-pass statistics (timing, op deltas, analysis
                        + estimator cache hits/misses; under --sweep, the
                        per-point QoR and the prefix-sharing counters; under
                        --explore, those plus the objectives and the
                        frontier; with --cache-dir, the store's counters) as
                        one JSON object on stdout; the human-readable report
                        moves to stderr
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
                (None, Some(model)) => {
                    if args.size.is_some() {
                        return Err(format!(
                            "--size applies to PolyBench kernels, not the DNN model '{}'",
                            model.name()
                        ));
                    }
                    (
                        Workload::Model(model),
                        format!("workload: {} (DNN model)", model.name()),
                    )
                }
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
    emit_cpp: Option<String>,
    pipeline: Option<String>,
    preset: Option<String>,
    sweep: Option<String>,
    explore: Option<String>,
    size: Option<i64>,
    jobs: Option<usize>,
    device: Option<String>,
    cache_dir: Option<String>,
    /// `--cache-limit-mb`, in bytes.
    cache_limit_bytes: Option<u64>,
    deadline_ms: Option<u64>,
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
            "--emit-cpp" => args.emit_cpp = Some(value()?),
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
            "--cache-limit-mb" => {
                let mb: u64 = positive(arg, &value()?)?;
                let bytes = mb.checked_mul(1024 * 1024).ok_or_else(|| {
                    format!("--cache-limit-mb: {mb} megabytes do not fit in a 64-bit byte count")
                })?;
                args.cache_limit_bytes = Some(bytes);
            }
            "--deadline-ms" => args.deadline_ms = Some(positive(arg, &value()?)?),
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

/// Prints one line of the human-readable report, returning from the
/// enclosing function when it cannot be written.
macro_rules! say {
    ($($fmt:tt)*) => {
        report_line(format_args!($($fmt)*))?
    };
}

/// Writes one line of the human-readable report: to stdout, or to stderr
/// under `--stats-json`.
fn report_line(line: std::fmt::Arguments) -> io::Result<()> {
    if REPORT_ON_STDERR.load(Ordering::Relaxed) {
        writeln!(io::stderr(), "{line}")
    } else {
        writeln!(io::stdout(), "{line}")
    }
}

/// Why a run ends before its report does.
enum Stop {
    /// A failure: printed as `error: …`, exit code 1.
    Failed(String),
    /// The reader closed the output (`hida-opt … | head`): the run ends
    /// quietly, exit code 0.
    Closed,
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Stop::Failed(message)
    }
}

impl From<&str> for Stop {
    fn from(message: &str) -> Self {
        Stop::Failed(message.to_string())
    }
}

impl From<io::Error> for Stop {
    fn from(error: io::Error) -> Self {
        match error.kind() {
            io::ErrorKind::BrokenPipe => Stop::Closed,
            _ => Stop::Failed(format!("cannot write the report: {error}")),
        }
    }
}

fn analysis_cache_json(c: &AnalysisCacheStats) -> Json {
    json_object! {
        "hits": c.hits, "misses": c.misses, "invalidations": c.invalidations,
        "preserved": c.preserved,
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
        "pass": stat.pass,
        "micros": stat.micros as u64,
        "live_ops_before": stat.live_ops_before,
        "live_ops_after": stat.live_ops_after,
        "op_delta": stat.op_delta(),
        "verified": stat.verified,
        "failed": stat.failed,
        "cache": analysis_cache_json(&stat.cache),
        "options": Json::array(stat.options.iter(), |o| json_object! {
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
    persistent: Option<&PersistentStoreStats>,
) -> Json {
    json_object! {
        "workload": workload,
        "pipeline": pipeline_text,
        "passes": Json::array(statistics, pass_json),
        "analysis_cache_totals": analysis_cache_json(&PassStatistics::aggregate_cache(statistics)),
        "estimator_cache": Json::option(estimator_cache, analysis_cache_json),
        "persistent_cache": Json::option(persistent, persistent_json),
    }
}

/// Which batch driver `--sweep <file>` / `--explore <file>` selected. The mode
/// decides whether a leading `explore{...}` line is accepted and whether the
/// report ends with the Pareto frontier; the points compile through
/// [`SweepEngine::run`] either way.
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

/// One point of a batch document, identified by its 0-based `index` in the
/// variants file.
fn point_json(index: usize, point: &SweepPointOutcome) -> Json {
    let mut fields = json_fields! {
        "index": index,
        "pipeline": point.pipeline.as_str(), "seconds": Json::Fixed(point.seconds, 6),
    };
    fields.extend(match &point.result {
        Ok(result) => json_fields! {
            "throughput": Json::Fixed(result.estimate.throughput(), 3),
            "dsp": result.estimate.resources.dsp,
            "bram_18k": result.estimate.resources.bram_18k,
        },
        Err(e) => json_fields! {
            "error": e.to_string().as_str(),
            "reason": classify_failure(e).name(),
        },
    });
    Json::Object(fields)
}

/// The `--stats-json` document of a sweep or an exploration (schema:
/// `docs/STATS_SCHEMA.md`): the exploration's is the sweep's with the
/// `objectives` and the `frontier` after `wall_seconds`.
fn batch_json(
    mode: Mode,
    workload: &str,
    sweep: &SweepOutcome,
    explored: Option<(&[Objective], &Frontier)>,
) -> Json {
    let mut body = json_fields! {
        "pool_jobs": sweep.budget.pool_jobs,
        "wall_seconds": Json::Fixed(sweep.wall_seconds, 6),
    };
    if let Some((objectives, frontier)) = explored {
        body.extend(json_fields! {
            "objectives": Json::array(objectives, |o| o.name().into()),
            "frontier": Json::array(frontier.points(), |p| json_object! {
                "label": p.label.as_str(),
                "pipeline": p.pipeline.as_str(),
                "objectives": Json::array(&p.objectives, |&o| o.into()),
                "throughput": Json::Fixed(p.throughput, 3),
                "dsp": p.dsp, "bram_18k": p.bram_18k,
            }),
        });
    }
    let points = sweep.points.iter().enumerate();
    body.extend(json_fields! {
        "points": Json::array(points, |(i, p)| point_json(i, p)),
        "persistent_cache": Json::option(sweep.persistent_cache.as_ref(), persistent_json),
        "prefix": json_object! {
            "passes_run": sweep.prefix.passes_run,
            "passes_reused": sweep.prefix.passes_reused,
            "checkpoints": sweep.prefix.checkpoints,
        },
    });
    Json::Object(vec![
        ("workload", workload.into()),
        (mode.name(), Json::Object(body)),
    ])
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
    /// thread total of a batch. A single compilation is a batch of one point,
    /// which compiles on the calling thread at any thread total.
    jobs: usize,
    /// `--device`, overriding every pipeline's own `parallelize` device.
    device: Option<FpgaDevice>,
    /// The engine every mode compiles through: `--jobs`, verification,
    /// `--deadline-ms`, `--run-budget-ms`, `--inject-faults` and
    /// `--cache-dir`'s persistent estimate store.
    engine: SweepEngine,
}

fn wire(args: &Args) -> Result<Wiring, String> {
    let jobs = args.jobs.unwrap_or_else(hida_ir_core::default_jobs);
    let mut engine = SweepEngine::new()
        .with_total_jobs(jobs)
        .with_verification(!args.no_verify);
    if let Some(spec) = &args.inject_faults {
        let plan = FaultPlan::parse(spec).map_err(|e| format!("--inject-faults: {e}"))?;
        if !plan.is_empty() {
            // Injected pass panics unwind by design; keep the default panic
            // hook from spamming stderr with their backtraces. (A deadline is
            // an error, not an unwind.)
            fault::silence_expected_panics();
            engine = engine.with_fault_plan(plan);
        }
    }
    match &args.cache_dir {
        Some(dir) => {
            let mut store = EstimateStore::open(dir)
                .map_err(|e| format!("--cache-dir: cannot open store at '{dir}': {e}"))?;
            if let Some(bytes) = args.cache_limit_bytes {
                store = store.with_limit_bytes(bytes);
            }
            engine = engine.with_cache(Arc::new(SharedEstimateCache::with_store(store)));
        }
        None if args.cache_limit_bytes.is_some() => {
            return Err("--cache-limit-mb requires --cache-dir".to_string())
        }
        None => {}
    }
    if let Some(ms) = args.deadline_ms {
        engine = engine.with_deadline_ms(ms);
    }
    if let Some(ms) = args.run_budget_ms {
        engine = engine.with_run_budget_ms(ms);
    }
    Ok(Wiring {
        jobs,
        device: args.device.as_deref().map(resolve_device).transpose()?,
        engine,
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
        .rev()
        .find(|i| i.name.as_str() == "parallelize")
        .and_then(|i| i.options.iter().find(|o| o.name.as_str() == "device"));
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
/// independent design point of the workload, compiled through the sweep
/// engine's pool (over `--cache-dir`'s store, when given). An
/// exploration then reports the Pareto frontier of the compiled points.
fn run_batch(args: &Args, mode: Mode, path: &str) -> Result<(), Stop> {
    let flag = format!("--{}", mode.name());
    if args.pipeline.is_some() || args.preset.is_some() {
        return Err(format!("{flag} is exclusive with --pipeline and --preset").into());
    }
    for (emits, given) in [("--emit-ir", &args.emit_ir), ("--emit-cpp", &args.emit_cpp)] {
        if given.is_some() {
            return Err(format!("{emits} applies to single compilations, not {flag}").into());
        }
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
    // An optional leading `explore{...}` line picks the objectives; every
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
        return Err(format!("{flag}: '{path}' contains no pipeline variants").into());
    }
    let mut points = Vec::new();
    for (index, (line_no, line)) in lines.iter().enumerate() {
        let label = format!("p{:02}", index + 1);
        let (point, _) = build_point(label, &source.workload, line, wiring.device.as_ref())
            .map_err(|e| format!("{} variant on line {line_no}: {e}", mode.name()))?;
        points.push(point);
    }

    say!("{}", source.line);
    say!(
        "{}: {} design points from {path}",
        mode.name(),
        points.len()
    );
    let objectives = &config.objectives;
    if mode == Mode::Explore {
        let names: Vec<&str> = objectives.iter().map(|o| o.name()).collect();
        say!("objectives: {}", names.join("+"));
    }
    if !args.no_timing {
        say!("jobs: {} total per batch of points", wiring.jobs);
    }

    let (outcome, frontier) = match mode {
        Mode::Sweep => (wiring.engine.run(&points), None),
        Mode::Explore => {
            let explorer = Explorer::new(config.clone()).with_engine(wiring.engine);
            let explored = explorer.explore(&points)?;
            (explored.sweep, Some(explored.frontier))
        }
    };

    for (index, point) in outcome.points.iter().enumerate() {
        say!("\npoint {:02}: {}", index + 1, point.pipeline);
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
                    say!("  time: {:.4}s", point.seconds);
                }
            }
            Err(e) => {
                say!("  error: {e}");
                say!("  reason: {}", classify_failure(e));
            }
        }
    }
    if let Some(frontier) = &frontier {
        say!("\n# Pareto frontier ({} points)", frontier.len());
        for point in frontier.points() {
            say!("  {point}");
        }
    }
    if !args.no_timing {
        say!("\n{} wall-clock {:.4}s", mode.name(), outcome.wall_seconds);
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
        let explored = frontier.as_ref().map(|f| (objectives.as_slice(), f));
        writeln!(
            io::stdout(),
            "{}",
            batch_json(mode, &source.name, &outcome, explored)
        )?;
    }
    let failed = outcome.failed_labels();
    if !failed.is_empty() {
        let (count, total, noun) = (failed.len(), outcome.points.len(), mode.name());
        say!(
            "\nFAILED: {count} of {total} {noun} points ({})",
            failed.join(", ")
        );
        return Err(
            format!("{count} of {total} {noun} points failed (see the report above)").into(),
        );
    }
    Ok(())
}

/// Prints the per-pass section of a single compilation's report.
fn say_passes(statistics: &[PassStatistics], no_timing: bool) -> Result<(), Stop> {
    say!("\n# Per-pass statistics");
    for stat in statistics {
        say!("{}", stat.line(!no_timing));
    }
    if !no_timing {
        let cache_totals = PassStatistics::aggregate_cache(statistics);
        say!("analysis cache totals: {cache_totals}");
    }
    Ok(())
}

/// A single compilation: the workload through one pipeline as a one-point
/// run of the engine every mode uses, reported pass by pass, then the
/// schedule and its QoR estimate; with `--emit-cpp`, the HLS C++ it emitted
/// goes to a file.
fn run_single(args: &Args) -> Result<(), Stop> {
    if args.run_budget_ms.is_some() {
        return Err("--run-budget-ms applies to --sweep and --explore".into());
    }
    let pipeline_text = match (&args.pipeline, &args.preset) {
        (Some(_), Some(_)) => return Err("--pipeline and --preset are exclusive".into()),
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
        return Err("the pipeline is empty".into());
    }
    let pipeline_text = parsed.to_text();

    say!("{}", source.line);
    // --emit-ir captures the module as the pipeline will see it: the printed
    // text re-parses (with --input) to a structurally identical design.
    if let Some(path) = &args.emit_ir {
        let mut ctx = Context::new();
        let (module, _) =
            hida::build_workload(&mut ctx, source.workload.clone()).map_err(|e| e.to_string())?;
        let text = hida_ir_core::printer::print_op(&ctx, module);
        std::fs::write(path, &text)
            .map_err(|e| format!("--emit-ir: cannot write '{path}': {e}"))?;
        say!("emitted IR: {path}");
    }

    let mut outcome = wiring.engine.run(std::slice::from_ref(&point));
    let compiled = outcome.points.swap_remove(0);
    let result = match compiled.result {
        Ok(result) => result,
        Err(error) => {
            // A failing pipeline still reports where (and after how long) it
            // died — including the machine-readable statistics, with the
            // estimator section nulled out because estimation never ran. A
            // point that failed before its first pass or after its last has
            // no pass to report.
            let statistics = &compiled.failed_pass_statistics;
            if !statistics.is_empty() {
                say!("pipeline: {pipeline_text}");
                say_passes(statistics, args.no_timing)?;
                if args.stats_json {
                    let json = single_json(&source.name, &pipeline_text, statistics, None, None);
                    writeln!(io::stdout(), "{json}")?;
                }
            }
            return Err(error.to_string().into());
        }
    };
    say!("pipeline: {pipeline_text}");
    say_passes(&result.pass_statistics, args.no_timing)?;

    let (ctx, schedule) = (&result.ctx, result.schedule);
    say!("\n# Schedule ({} nodes)", schedule.nodes(ctx).len());
    for node in schedule.nodes(ctx) {
        // Every node `parallelize` saw records its factors; only a node
        // without them needs a profile walk, for the rank of the all-1s.
        let unroll = match ctx
            .op(node.id())
            .attr_int_array(transforms::ATTR_UNROLL_FACTORS)
        {
            Some(factors) => Cow::Borrowed(factors),
            None => {
                let rank = ComputeProfile::compute(ctx, node.id()).loop_dims.len();
                transforms::unroll_factors_of(ctx, node.id(), rank)
            }
        };
        say!(
            "node {:<24} intensity {:<10} parallel factor {:<5} unroll {:?}",
            node.name(ctx),
            ctx.op(node.id()).attr_int("intensity").unwrap_or(0),
            ctx.op(node.id()).attr_int("parallel_factor").unwrap_or(0),
            unroll,
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

    let device = &point.options.device;
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
    let persistent = outcome.persistent_cache.as_ref();
    if !args.no_timing {
        say!(
            "estimator cache: {} (dataflow + sequential estimates share node estimates)",
            result.estimator_cache
        );
        if let Some(persistent) = persistent {
            say!("persistent estimate store: {persistent}");
        }
    }
    if args.stats_json {
        let statistics = &result.pass_statistics;
        let estimator_cache = Some(&result.estimator_cache);
        let json = single_json(
            &source.name,
            &pipeline_text,
            statistics,
            estimator_cache,
            persistent,
        );
        writeln!(io::stdout(), "{json}")?;
    }
    if let Some(path) = &args.emit_cpp {
        std::fs::write(path, &result.hls_cpp)
            .map_err(|e| format!("--emit-cpp: cannot write '{path}': {e}"))?;
        say!("emitted C++: {path}");
    }
    Ok(())
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
    let mut stdout = io::stdout();
    let outcome = if args.help {
        writeln!(stdout, "{USAGE}").map_err(Stop::from)
    } else if args.list_passes {
        write!(stdout, "{}", registry_listing()).map_err(Stop::from)
    } else if args.list_workloads {
        writeln!(stdout, "{}", workload_listing()).map_err(Stop::from)
    } else {
        REPORT_ON_STDERR.store(args.stats_json, Ordering::Relaxed);
        match (&args.explore, &args.sweep) {
            (Some(_), Some(_)) => Err("--explore is exclusive with --sweep".into()),
            (Some(path), None) => run_batch(&args, Mode::Explore, path),
            (None, Some(path)) => run_batch(&args, Mode::Sweep, path),
            (None, None) => run_single(&args),
        }
    };
    match outcome {
        Ok(()) | Err(Stop::Closed) => ExitCode::SUCCESS,
        Err(Stop::Failed(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
