//! One workload, start to finish, in this process: verify, set up (several
//! times, for a steady `setup_s`), warm up, measure with tracing off, then
//! replay under the tracer for the per-layer numbers.

use crate::alloc::Snapshot;
use crate::calibrate::Calibrator;
use crate::checks::{self, Checks, Digest, Rule};
use crate::layers::{traced_compile, CompileSpec, Layers};
use crate::report::{peak_rss_mb, Metric, END_TO_END};
use crate::stats;
use crate::subjects::{
    dnn_subjects, fig10_grid, fig11_grid, hir_subjects, point_compiler, Op, Output, Rng, STORE_DIRS,
};
use crate::trace::Tracer;
use hida::estimator::latency::NodeEstimate;
use hida::ir::fingerprint::Fingerprint;
use hida::{
    Compiler, EstimateStore, ExploreOutcome, Frontier, FrontierPoint, Objective,
    SharedEstimateCache, SweepOutcome, SweepPoint, Workload,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is repeated until it has run `MIN_SETUP_REPEATS` times and taken
/// `SETUP_SHORT` in all (a 20 ms set-up needs the repeats to read steadily),
/// but not beyond `MAX_SETUP_REPEATS` runs, nor once `SETUP_LONG` has gone
/// into it (`fig10-store`'s set-up is itself ten cold sweeps and takes
/// seconds). `setup_s` is the median of the runs.
const MIN_SETUP_REPEATS: usize = 3;
const MAX_SETUP_REPEATS: usize = 15;
const SETUP_SHORT: f64 = 1.0;
const SETUP_LONG: f64 = 4.0;
/// Kernel samples taken before and after each set-up.
const SETUP_CALIBRATION: usize = 21;
/// Warm-up lasts this long, or as long as the window if that is shorter.
const WARM_UP: Duration = Duration::from_secs(2);
/// Each traced round of a grid workload replays every `REPLAY_STRIDE`-th
/// point layer by layer, starting one further each round.
const REPLAY_STRIDE: usize = 5;
/// `op_ms_p90` compares each op with the median of this many ops before and
/// after it; `ops_per_s` is the median rate of this many parts of the window.
const TAIL_HALF_WINDOW: usize = 5;
const RATE_BLOCKS: usize = 5;
/// The traced pass replays at least this many compiles (single-compile
/// workloads) or sweeps/explorations (grid workloads), however short the run.
const MIN_TRACED_COMPILES: u64 = 200;
const MIN_TRACED_SWEEPS: u64 = 20;
/// Spans of this many traced compiles are kept for the trace file; later
/// ones are folded into the per-layer samples and dropped.
const KEPT_TRACED_COMPILES: u64 = 300;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// `Some(false)`: end-to-end only. `Some(true)`: half the time untraced,
    /// half traced, per-layer reported. `None`: the full window, then the
    /// traced pass, everything reported.
    pub trace: Option<bool>,
    pub out_dir: PathBuf,
    pub jobs_n: usize,
}

/// One thing ops are run on: a model, a `.hir` text, a grid, a store directory.
struct Subject {
    name: String,
    op: Op,
    /// What the op must produce, from share-nothing compiles in set-up.
    reference: Vec<Digest>,
    /// The grid the op sweeps or explores. Subjects of one grid (the store
    /// directories) are one subject as far as timing goes.
    grid: Option<usize>,
}

struct Grid {
    points: Rc<Vec<SweepPoint>>,
    /// Share-nothing digest of every point, in declaration order.
    reference: Vec<Digest>,
    /// Objective vectors of the exhaustive Pareto frontier.
    frontier_vectors: Vec<Vec<i64>>,
    /// Digests of the exhaustive frontier's points, in frontier order.
    frontier_digests: Vec<Digest>,
}

struct Prepared {
    subjects: Vec<Subject>,
    grids: Vec<Grid>,
}

impl Prepared {
    /// The timing group of subject `s`: its grid, or itself.
    fn group(&self, s: usize) -> usize {
        self.subjects[s].grid.unwrap_or(s)
    }

    fn groups(&self) -> usize {
        if self.grids.is_empty() {
            self.subjects.len()
        } else {
            self.grids.len()
        }
    }
}

/// Removes the store directories of this process when it ends, however.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const OBJECTIVES: [Objective; 3] = [Objective::Throughput, Objective::Dsp, Objective::Bram];

fn compile_subjects(
    named: Vec<(String, Workload)>,
    base: &Compiler,
    jobs: usize,
    jobs_n: usize,
    rules: &[Rule],
    checks: &mut Checks,
) -> Result<Prepared, String> {
    let mut subjects = Vec::new();
    for (name, workload) in named {
        let compile = |jobs: usize| {
            base.clone()
                .with_jobs(jobs)
                .compile(workload.clone())
                .map_err(|e| format!("{name} at jobs {jobs}: {e}"))
        };
        let one = compile(1)?;
        let many = compile(jobs_n)?;
        checks.record(checks::same_design(
            &format!("{name}: jobs 1 vs jobs {jobs_n}"),
            &one,
            &many,
        ));
        checks.record(checks::shape_holds(rules, &name, &one));
        subjects.push(Subject {
            reference: vec![checks::digest_of(&one)],
            op: Op::Compile {
                compiler: base.clone().with_jobs(jobs),
                workload,
            },
            name,
            grid: None,
        });
    }
    Ok(Prepared {
        subjects,
        grids: Vec::new(),
    })
}

/// Compiles every point of a grid share-nothing (own context, one job, no
/// cache), checks each against the shape rules, and derives the exhaustive
/// Pareto frontier.
fn reference_grid(
    points: Vec<SweepPoint>,
    rules: &[Rule],
    checks: &mut Checks,
) -> Result<Grid, String> {
    let mut reference = Vec::new();
    let mut frontier = Frontier::new();
    for point in &points {
        let result = point_compiler(point)
            .compile(point.workload.clone())
            .map_err(|e| format!("reference compile of {}: {e}", point.label))?;
        checks.record(checks::shape_holds(rules, &point.label, &result));
        reference.push(checks::digest_of(&result));
        frontier.insert(FrontierPoint::from_vector(
            point.label.clone(),
            OBJECTIVES
                .iter()
                .map(|o| o.value(&result.estimate))
                .collect(),
        ));
    }
    let frontier_digests = frontier
        .points()
        .iter()
        .filter_map(|f| points.iter().position(|p| p.label == f.label))
        .map(|i| reference[i])
        .collect();
    Ok(Grid {
        points: Rc::new(points),
        reference,
        frontier_vectors: frontier.vectors(),
        frontier_digests,
    })
}

fn set_up(
    cfg: &Config,
    store_root: &Path,
    rules: &[Rule],
    checks: &mut Checks,
) -> Result<Prepared, String> {
    let n = cfg.jobs_n;
    match cfg.workload.as_str() {
        "dnn-single" => compile_subjects(
            dnn_subjects(),
            &Compiler::dnn_defaults(),
            1,
            n,
            rules,
            checks,
        ),
        "dnn-jobsN" => compile_subjects(
            dnn_subjects(),
            &Compiler::dnn_defaults(),
            n,
            n,
            rules,
            checks,
        ),
        "polybench-hir" => compile_subjects(
            hir_subjects()?,
            &Compiler::polybench_defaults(),
            1,
            n,
            rules,
            checks,
        ),
        "fig10-sweep" => {
            let grid = reference_grid(fig10_grid(), rules, checks)?;
            let subject = Subject {
                name: "fig10".to_string(),
                op: Op::Sweep {
                    points: Rc::clone(&grid.points),
                    jobs: n,
                    store_dir: None,
                },
                reference: grid.reference.clone(),
                grid: Some(0),
            };
            Ok(Prepared {
                subjects: vec![subject],
                grids: vec![grid],
            })
        }
        "fig10-store" => {
            let grid = reference_grid(fig10_grid(), rules, checks)?;
            let mut subjects = Vec::new();
            for k in 0..STORE_DIRS {
                let op = Op::Sweep {
                    points: Rc::clone(&grid.points),
                    jobs: n,
                    store_dir: Some(store_root.join(format!("d{k:02}"))),
                };
                // The cold sweep that fills the directory: the write path.
                let cold = op.run();
                checks.record(expect_digests(
                    &format!("cold store sweep {k}"),
                    &cold,
                    &grid.reference,
                ));
                subjects.push(Subject {
                    name: format!("fig10@d{k:02}"),
                    op,
                    reference: grid.reference.clone(),
                    grid: Some(0),
                });
            }
            Ok(Prepared {
                subjects,
                grids: vec![grid],
            })
        }
        "explore-grids" => {
            let mut subjects = Vec::new();
            let mut grids = Vec::new();
            for (name, points) in [("fig10", fig10_grid()), ("fig11", fig11_grid())] {
                let grid = reference_grid(points, rules, checks)?;
                subjects.push(Subject {
                    name: name.to_string(),
                    op: Op::Explore {
                        points: Rc::clone(&grid.points),
                        jobs: n,
                        seed: cfg.seed,
                    },
                    reference: grid.frontier_digests.clone(),
                    grid: Some(grids.len()),
                });
                grids.push(grid);
            }
            Ok(Prepared { subjects, grids })
        }
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// `Ok` when an op produced exactly the reference designs.
fn compare(
    what: &str,
    got: &Result<Vec<Digest>, String>,
    reference: &[Digest],
) -> Result<(), String> {
    let got = got.as_ref().map_err(|e| format!("{what}: {e}"))?;
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} designs differ from the share-nothing reference ({} produced, {} expected)",
            got.iter().zip(reference).filter(|(a, b)| a != b).count(),
            got.len(),
            reference.len()
        ))
    }
}

fn expect_digests(what: &str, output: &Output, reference: &[Digest]) -> Result<(), String> {
    compare(what, &output.digests(), reference)
}

/// One timed op.
struct OpRecord {
    /// Timing group (see `Prepared::group`) and round it ran in.
    group: usize,
    round: usize,
    /// Wall time as measured, in ms.
    raw_ms: f64,
    /// Calibration samples taken before it: its position on the machine's
    /// slowdown curve.
    mark: usize,
}

/// What the timed window accumulates.
#[derive(Default)]
struct Window {
    /// Every op, in the order they ran.
    ops: Vec<OpRecord>,
    rounds: usize,
    alloc: Snapshot,
    /// The designs each subject's latest op produced.
    designs: Vec<Vec<Digest>>,
}

impl Window {
    /// Op times of timing group `group` in time order: as measured, or each
    /// divided by `slowdowns` at its moment.
    fn group_ms(&self, group: usize, slowdowns: Option<&[f64]>) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|op| op.group == group)
            .map(|op| op.raw_ms / slowdowns.map_or(1.0, |s| s[op.mark]))
            .collect()
    }

    /// Per round, the corrected time the one client spent waiting, in s.
    fn round_busy_s(&self, slowdowns: &[f64]) -> Vec<f64> {
        let mut busy = vec![0.0; self.rounds];
        for op in &self.ops {
            busy[op.round] += op.raw_ms / slowdowns[op.mark] / 1e3;
        }
        busy
    }
}

/// One op: run it, stop the clock, check what it produced, then time
/// releasing it (a user pays that too) with the check left out.
fn timed_op(subject: &Subject, checks: &mut Checks) -> (f64, Snapshot, Vec<Digest>) {
    let before = Snapshot::now();
    let start = Instant::now();
    let output = black_box(subject.op.run());
    let ran = start.elapsed();
    let mut allocated = Snapshot::now().since(&before);

    let digests = output.digests();
    checks.record(compare(&subject.name, &digests, &subject.reference));

    let before = Snapshot::now();
    let start = Instant::now();
    drop(output);
    let released = start.elapsed();
    allocated.add(&Snapshot::now().since(&before));
    (
        (ran + released).as_secs_f64() * 1e3,
        allocated,
        digests.unwrap_or_default(),
    )
}

/// Runs whole rounds — every subject once, in a fresh seeded order — until
/// `duration` has passed. Whole rounds keep the subject mix, and with it the
/// per-op allocation counts, identical from run to run.
fn run_rounds(
    prepared: &Prepared,
    rng: &mut Rng,
    duration: Duration,
    checks: &mut Checks,
    calibrator: &mut Calibrator,
    mut window: Option<&mut Window>,
) {
    let start = Instant::now();
    loop {
        for s in rng.permutation(prepared.subjects.len()) {
            calibrator.sample_if_due();
            let (raw_ms, allocated, digests) = timed_op(&prepared.subjects[s], checks);
            if let Some(w) = window.as_deref_mut() {
                w.ops.push(OpRecord {
                    group: prepared.group(s),
                    round: w.rounds,
                    raw_ms,
                    mark: calibrator.mark(),
                });
                w.alloc.add(&allocated);
                w.designs[s] = digests;
            }
        }
        if let Some(w) = window.as_deref_mut() {
            w.rounds += 1;
        }
        if start.elapsed() >= duration {
            break;
        }
    }
}

fn sample_sweep(layers: &mut Layers, subject: usize, outcome: &SweepOutcome) {
    let point_s = outcome.point_seconds_total();
    layers.add_duration("core.sweep_point_ms_sum", subject, point_s * 1e3);
    layers.add(
        "core.sweep_parallel_efficiency",
        subject,
        stats::ratio(
            point_s,
            outcome.wall_seconds * outcome.budget.pool_jobs as f64,
        ),
    );
    layers.add(
        "core.sweep_pool_steals",
        subject,
        outcome.pool.steals as f64,
    );
    layers.add(
        "core.sweep_pool_imbalance",
        subject,
        outcome.pool.imbalance() as f64,
    );
    if let Some(shared) = &outcome.shared_cache {
        layers.add("estimator.shared_hits", subject, shared.hits as f64);
        layers.add("estimator.shared_misses", subject, shared.misses as f64);
    }
    if let Some(store) = &outcome.persistent_cache {
        layers.add("estimator.store_hits", subject, store.hits as f64);
        layers.add("estimator.store_misses", subject, store.misses as f64);
        layers.add("estimator.store_writes", subject, store.writes as f64);
    }
}

fn sample_exploration(layers: &mut Layers, subject: usize, outcome: &ExploreOutcome, grid: &Grid) {
    layers.add(
        "core.explore_compiled_share",
        subject,
        stats::ratio(outcome.points.len() as f64, outcome.num_candidates as f64),
    );
    layers.add("core.explore_pruned", subject, outcome.pruned as f64);
    let found = outcome.frontier.vectors();
    let covered = grid
        .frontier_vectors
        .iter()
        .filter(|v| found.contains(v))
        .count();
    layers.add(
        "core.explore_frontier_coverage",
        subject,
        stats::ratio(covered as f64, grid.frontier_vectors.len() as f64),
    );
    if let Some(shared) = &outcome.shared_cache {
        layers.add("estimator.shared_hits", subject, shared.hits as f64);
        layers.add("estimator.shared_misses", subject, shared.misses as f64);
    }
}

/// Times `EstimateStore::save` and `load` directly, entry by entry, over the
/// node estimates of a whole grid, in a directory of its own.
fn probe_store(
    dir: &Path,
    entries: &BTreeMap<Fingerprint, NodeEstimate>,
    layers: &mut Layers,
) -> Result<(), String> {
    let store = EstimateStore::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    for (key, estimate) in entries {
        let start = Instant::now();
        store.save(*key, estimate);
        layers.add_duration(
            "estimator.store_save_us_per_entry",
            0,
            start.elapsed().as_secs_f64() * 1e6,
        );
    }
    for key in entries.keys() {
        let start = Instant::now();
        black_box(store.load(*key));
        layers.add_duration(
            "estimator.store_load_us_per_entry",
            0,
            start.elapsed().as_secs_f64() * 1e6,
        );
    }
    layers.add(
        "estimator.store_disk_kb",
        0,
        store.disk_bytes() as f64 / 1024.0,
    );
    Ok(())
}

/// `Ok` when a compile replayed layer by layer produced what
/// `Compiler::compile` produced for the reference.
fn replay_verdict(
    what: &str,
    replayed: Result<Digest, String>,
    reference: Digest,
) -> Result<(), String> {
    match replayed {
        Ok(digest) if digest == reference => Ok(()),
        Ok(_) => Err(format!(
            "{what}: replayed compile differs from Compiler::compile"
        )),
        Err(e) => Err(format!("{what}: replayed compile failed: {e}")),
    }
}

/// The traced pass of a single-compile workload: every subject in turn,
/// replayed layer by layer and compared with its reference.
fn trace_compiles(
    prepared: &Prepared,
    budget: Duration,
    calibrator: &mut Calibrator,
    tracer: &mut Tracer,
    layers: &mut Layers,
    checks: &mut Checks,
) {
    let start = Instant::now();
    let mut compiles = 0_u64;
    while compiles < MIN_TRACED_COMPILES || start.elapsed() < budget {
        for (s, subject) in prepared.subjects.iter().enumerate() {
            let Op::Compile { compiler, workload } = &subject.op else {
                continue;
            };
            let spec = CompileSpec {
                subject: &subject.name,
                workload,
                options: compiler.options(),
                pipeline: compiler.pipeline_text(),
                jobs: compiler.jobs(),
                shared: None,
            };
            calibrator.sample_if_due();
            layers.set_slowdown(calibrator.recent_slowdown());
            let mark = tracer.spans().len();
            let digest = traced_compile(tracer, layers, s, &spec, None);
            checks.record(replay_verdict(&subject.name, digest, subject.reference[0]));
            compiles += 1;
            if compiles > KEPT_TRACED_COMPILES {
                tracer.truncate(mark);
            }
        }
    }
}

/// The points of `grid` replayed in traced round `round`, with their indices.
fn replayed(grid: &[SweepPoint], round: u64) -> impl Iterator<Item = (usize, &SweepPoint)> {
    grid.iter()
        .enumerate()
        .skip(round as usize % REPLAY_STRIDE)
        .step_by(REPLAY_STRIDE)
}

/// The traced pass of a grid workload. Each round takes the next subject and
/// runs, under spans: the op itself; for an exploration, also the exhaustive
/// sweep of the same grid; then, for a fifth of the grid's points (the next
/// fifth each round), the explorer's `Compiler::lower` probe and the compile
/// replayed layer by layer at one job against one shared cache (what one
/// lane of the sweep does). Returns the node estimates of the whole grid,
/// keyed as the store keys them, on `fig10-store` (empty elsewhere).
fn trace_grids(
    cfg: &Config,
    prepared: &Prepared,
    budget: Duration,
    calibrator: &mut Calibrator,
    tracer: &mut Tracer,
    layers: &mut Layers,
    checks: &mut Checks,
) -> BTreeMap<Fingerprint, NodeEstimate> {
    let start = Instant::now();
    let mut rounds = 0_u64;
    let mut node_estimates: BTreeMap<Fingerprint, NodeEstimate> = BTreeMap::new();
    while rounds < MIN_TRACED_SWEEPS || start.elapsed() < budget {
        let s = rounds as usize % prepared.subjects.len();
        let subject = &prepared.subjects[s];
        let grid_index = subject.grid.unwrap_or(0);
        let grid = &prepared.grids[grid_index];

        calibrator.sample_if_due();
        layers.set_slowdown(calibrator.recent_slowdown());
        tracer.next_op(&subject.name);
        let span = tracer.begin(match subject.op {
            Op::Explore { .. } => "core.explore",
            _ => "core.sweep",
        });
        let output = subject.op.run();
        tracer.end(span);
        let op_us = tracer.spans()[span].dur_us();
        layers.add("core.op_raw_us", s, op_us);
        checks.record(expect_digests(&subject.name, &output, &subject.reference));
        match &output {
            Output::Sweep(Ok(outcome)) => sample_sweep(layers, s, outcome),
            Output::Explore(Ok(outcome)) => sample_exploration(layers, s, outcome, grid),
            _ => {}
        }
        drop(output);
        if matches!(subject.op, Op::Explore { .. }) {
            // The exhaustive sweep the explorer is on trial against.
            let exhaustive = Op::Sweep {
                points: Rc::clone(&grid.points),
                jobs: cfg.jobs_n,
                store_dir: None,
            };
            tracer.next_op(&format!("{} exhaustive", subject.name));
            let span = tracer.begin("core.sweep");
            let swept = exhaustive.run();
            tracer.end(span);
            let sweep_us = tracer.spans()[span].dur_us();
            checks.record(expect_digests("exhaustive sweep", &swept, &grid.reference));
            if let Output::Sweep(Ok(outcome)) = &swept {
                sample_sweep(layers, s, outcome);
            }
            layers.add(
                "core.explore_vs_exhaustive_ratio",
                s,
                stats::ratio(op_us, sweep_us),
            );
            // The probe half of the explorer: lower, no estimate, no emit.
            tracer.next_op(&format!("{} probes", subject.name));
            let probes = tracer.begin("core.explore.probes");
            for (i, point) in replayed(&grid.points, rounds) {
                let probe = point_compiler(point).with_verification(false);
                let span = tracer.begin("core.explore.lower");
                let lowered = black_box(probe.lower(point.workload.clone()));
                tracer.end(span);
                if lowered.is_ok() {
                    layers.add_duration(
                        "core.explore_lower_us",
                        grid_index * 1000 + i,
                        tracer.spans()[span].dur_us(),
                    );
                }
            }
            tracer.end(probes);
        }

        let cache = Arc::new(SharedEstimateCache::new());
        for (i, point) in replayed(&grid.points, rounds) {
            let spec = CompileSpec {
                subject: &point.label,
                workload: &point.workload,
                options: &point.options,
                pipeline: point.pipeline.as_deref(),
                jobs: 1,
                shared: Some(&cache),
            };
            calibrator.sample_if_due();
            layers.set_slowdown(calibrator.recent_slowdown());
            let mark = tracer.spans().len();
            // After `REPLAY_STRIDE` rounds every point has been replayed once.
            let collect = (cfg.workload == "fig10-store" && rounds < REPLAY_STRIDE as u64)
                .then_some(&mut node_estimates);
            let digest = traced_compile(tracer, layers, grid_index * 1000 + i, &spec, collect);
            checks.record(replay_verdict(&point.label, digest, grid.reference[i]));
            if rounds >= 2 * REPLAY_STRIDE as u64 {
                tracer.truncate(mark);
            }
        }
        rounds += 1;
    }
    node_estimates
}

/// Everything one run measured.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub ops: u64,
    pub rounds: u64,
    /// `op_ms_p50` before speed correction, and the machine's median
    /// slowdown over the window (1 = the calibration kernel at its nominal
    /// time): corrected = raw / slowdown, op by op.
    pub raw_op_ms_p50: f64,
    pub slowdown: f64,
    /// The quantile `op_ms_p90` actually reports (0.90 from 100 samples per
    /// subject on; lower when the window held fewer).
    pub tail_quantile: f64,
    pub samples_per_subject: usize,
    pub trace_file: Option<PathBuf>,
}

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let rules = checks::parse_rules(checks::CPP_SHAPE_RULES)?;
    let mut checks = Checks::default();
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let scratch = ScratchDir(cfg.out_dir.join(format!(
        "store-{}-{}",
        cfg.workload,
        std::process::id()
    )));

    // Verify once: the simulator oracle. Kept out of `setup_s` (it is the
    // benchmark's cost, not the compiler's) and reported as `sim.interpret_us`.
    let mut calibrator = Calibrator::default();
    calibrator.burst(SETUP_CALIBRATION);
    let mut interpret_us = Vec::new();
    if cfg.workload == "polybench-hir" {
        for (_, workload) in hir_subjects()? {
            let verdict = checks::oracle_agrees(&Compiler::polybench_defaults(), &workload);
            if let Ok(spent) = &verdict {
                interpret_us.push(spent.as_secs_f64() * 1e6);
            }
            checks.record(verdict.map(|_| ()));
        }
        calibrator.burst(SETUP_CALIBRATION);
    }
    let verify_slowdown = calibrator.slowdown_between(0, calibrator.mark());

    // Set up several times; later phases use the last one. Kernel samples
    // before and after each set-up give the machine's slowdown during it.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_spent = 0.0;
    let mut prepared = None;
    loop {
        let runs = setup_s.len();
        let enough = runs >= MIN_SETUP_REPEATS && setup_spent >= SETUP_SHORT;
        if runs > 0 && (enough || runs >= MAX_SETUP_REPEATS || setup_spent >= SETUP_LONG) {
            break;
        }
        // The previous repeat's designs and store directories go first, untimed.
        drop(prepared.take());
        let store_root = scratch.0.join("setup");
        let _ = std::fs::remove_dir_all(&store_root);
        let before = calibrator.mark() - SETUP_CALIBRATION;
        let start = Instant::now();
        let this = set_up(cfg, &store_root, &rules, &mut checks)?;
        let raw_s = start.elapsed().as_secs_f64();
        calibrator.burst(SETUP_CALIBRATION);
        setup_spent += raw_s;
        setup_s.push(raw_s / calibrator.slowdown_between(before, calibrator.mark()));
        prepared = Some(this);
    }
    let prepared = prepared.ok_or("set-up never ran")?;

    // Warm up, then measure with tracing off.
    let mut rng = Rng::new(cfg.seed);
    let warm_up = WARM_UP.min(Duration::from_secs_f64(cfg.seconds));
    run_rounds(
        &prepared,
        &mut rng,
        warm_up,
        &mut checks,
        &mut calibrator,
        None,
    );
    let untraced_s = match cfg.trace {
        Some(true) => cfg.seconds / 2.0,
        _ => cfg.seconds,
    };
    let mut window = Window {
        designs: vec![Vec::new(); prepared.subjects.len()],
        ..Window::default()
    };
    run_rounds(
        &prepared,
        &mut rng,
        Duration::from_secs_f64(untraced_s),
        &mut checks,
        &mut calibrator,
        Some(&mut window),
    );
    let peak_rss = peak_rss_mb();
    // A few more samples, so the last ops have a slowdown on both sides.
    calibrator.burst(SETUP_CALIBRATION);

    // Times are divided by the machine's slowdown at their moment (see
    // `calibrate`), taken per subject first (a slow subject's samples must
    // not crowd out a fast one's) and geomeaned across subjects. The tail is
    // taken against the running median and the rate over fifths of the
    // window, so that what is left of the machine's speed changes moves them
    // no more than it moves the median.
    let slowdowns = calibrator.slowdowns();
    let corrected: Vec<Vec<f64>> = (0..prepared.groups())
        .map(|g| window.group_ms(g, Some(&slowdowns)))
        .collect();
    let samples_per_subject = corrected.iter().map(Vec::len).min().unwrap_or(0);
    let tail_quantile = stats::tail_quantile(samples_per_subject);
    let ops = window.ops.len() as f64;
    let designs = || window.designs.iter().flatten();
    let mut end_to_end_values = vec![
        stats::median(&setup_s),
        stats::geomean(corrected.iter().map(|ms| stats::median(ms))),
        stats::geomean(corrected.iter().map(|ms| {
            stats::median(ms) * stats::local_tail_factor(ms, TAIL_HALF_WINDOW, tail_quantile)
        })),
        stats::median_block_rate(
            &window.round_busy_s(&slowdowns),
            prepared.subjects.len() as f64,
            RATE_BLOCKS,
        ),
        peak_rss,
        stats::ratio(window.alloc.bytes as f64 / (1024.0 * 1024.0), ops),
        stats::ratio(window.alloc.allocs as f64, ops),
        stats::geomean(designs().map(|d| d.sps)),
        stats::geomean(designs().map(|d| d.dsp_eff)),
    ];
    // Raw times: what the report shows beside the corrected figures, and
    // what `trace.overhead_ratio` compares the traced pass's raw times with
    // (the kernel runs a tenth faster between traced ops than between timed
    // ones, so corrected times of the two passes do not compare).
    let raw: Vec<Vec<f64>> = (0..prepared.groups())
        .map(|g| window.group_ms(g, None))
        .collect();
    let raw_op_ms_p50 = stats::geomean(raw.iter().map(|ms| stats::median(ms)));
    let slowdown = stats::median(
        &window
            .ops
            .iter()
            .map(|op| slowdowns[op.mark])
            .collect::<Vec<_>>(),
    );

    // The traced pass.
    let mut per_layer = Vec::new();
    let mut trace_file = None;
    if cfg.trace != Some(false) {
        let budget = Duration::from_secs_f64(cfg.seconds / 2.0);
        let mut tracer = Tracer::new();
        let mut layers = Layers::default();
        layers.set_slowdown(verify_slowdown);
        for us in &interpret_us {
            layers.add_duration("sim.interpret_us", 0, *us);
        }
        calibrator.burst(1);
        layers.set_slowdown(calibrator.recent_slowdown());
        for _ in 0..200 {
            let start = Instant::now();
            black_box(hida::ir::par::run_batch(cfg.jobs_n, &[(); 20], |_| ()));
            layers.add_duration(
                "ir.par_empty_batch_us",
                0,
                start.elapsed().as_secs_f64() * 1e6,
            );
        }
        if prepared.grids.is_empty() {
            trace_compiles(
                &prepared,
                budget,
                &mut calibrator,
                &mut tracer,
                &mut layers,
                &mut checks,
            );
        } else {
            // On `fig10-store` the replay also gathers the grid's node
            // estimates, to time the store on directly.
            let node_estimates = trace_grids(
                cfg,
                &prepared,
                budget,
                &mut calibrator,
                &mut tracer,
                &mut layers,
                &mut checks,
            );
            if !node_estimates.is_empty() {
                probe_store(&scratch.0.join("probe"), &node_estimates, &mut layers)?;
            }
        }
        let path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
        tracer
            .write_chrome_trace(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        trace_file = Some(path);

        // Untraced time per op over the same subject mix the layers use.
        let untraced_us =
            1e3 * stats::mean(&raw.iter().map(|ms| stats::median(ms)).collect::<Vec<_>>());
        let traced_us = if prepared.grids.is_empty() {
            layers.value("core.compile_raw_us")
        } else {
            layers.value("core.op_raw_us")
        };
        for (name, unit) in crate::layers::per_layer_names() {
            let hit_ratio = |hits: &str, misses: &str| {
                let hits = layers.total(hits);
                stats::ratio(hits, hits + layers.total(misses))
            };
            let value = match name.as_str() {
                "opt.analysis_hit_ratio" => hit_ratio("opt.analysis_hits", "opt.analysis_misses"),
                "estimator.shared_hit_ratio" => {
                    hit_ratio("estimator.shared_hits", "estimator.shared_misses")
                }
                "estimator.node_cache_hit_ratio" => stats::ratio(
                    layers.total("estimator.node_cache_hits"),
                    layers.total("estimator.node_cache_queries"),
                ),
                "trace.overhead_ratio" => stats::ratio(traced_us, untraced_us),
                other => layers.value(other),
            };
            per_layer.push(Metric { name, unit, value });
        }
    }

    // `failed_share` last, after the traced pass, so its checks count too.
    end_to_end_values.push(checks.failed_share());
    let end_to_end = END_TO_END
        .iter()
        .zip(end_to_end_values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect();

    Ok(RunResult {
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.messages,
        end_to_end,
        per_layer,
        ops: window.ops.len() as u64,
        rounds: window.rounds as u64,
        raw_op_ms_p50,
        slowdown,
        tail_quantile,
        samples_per_subject,
        trace_file,
    })
}
