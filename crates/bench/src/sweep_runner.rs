//! Sweep harness shared by the benchmark binaries.
//!
//! [`SweepRunner`] collects the design points of one figure/table sweep and
//! drives them through the sweep engine ([`hida::SweepEngine`]). Its
//! [`SweepRunner::compare`] mode additionally replays the points through
//! today's baseline — a sequential, share-nothing loop — verifies that every
//! design point's QoR, emitted C++ and printed IR are **byte-identical**
//! across the two runs, and summarizes wall-clock, speedup and cross-
//! compilation cache traffic as the JSON sweep report CI's `cache` and
//! `persist` stages grep.

use hida::ir::printer::print_op;
use hida::sweep::json_escape;
use hida::{
    CompilationResult, SharedEstimateCache, SweepEngine, SweepOutcome, SweepPoint,
    SweepPointOutcome,
};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// A named list of design points plus the machinery to run and report them.
#[derive(Debug, Default)]
pub struct SweepRunner {
    name: String,
    points: Vec<SweepPoint>,
    cache: Option<Arc<SharedEstimateCache>>,
}

impl SweepRunner {
    /// Creates an empty sweep called `name` (e.g. `"fig10-reduced"`).
    pub fn new(name: impl Into<String>) -> Self {
        SweepRunner {
            name: name.into(),
            points: Vec::new(),
            cache: None,
        }
    }

    /// Uses `cache` for the pooled arm instead of a fresh per-run cache
    /// (builder style). Hand in a cache created with
    /// [`hida::SharedEstimateCache::with_store`] to persist estimates across
    /// bench *processes*: the comparison then reports the disk tier's traffic
    /// in its JSON report, and a warm re-run of the same binary serves its
    /// estimates from the store. The sequential baseline arm never sees the
    /// cache — it stays the share-nothing loop the pooled results are
    /// verified against.
    pub fn with_cache(mut self, cache: Arc<SharedEstimateCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Appends a design point (builder style).
    pub fn point(mut self, point: SweepPoint) -> Self {
        self.points.push(point);
        self
    }

    /// Appends many design points (builder style).
    pub fn points(mut self, points: impl IntoIterator<Item = SweepPoint>) -> Self {
        self.points.extend(points);
        self
    }

    /// The sweep's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of collected design points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points were collected.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Runs the sweep pooled with estimate sharing, up to `total_jobs` points
    /// at a time.
    pub fn run(&self, total_jobs: usize) -> SweepOutcome {
        let mut engine = SweepEngine::new().with_total_jobs(total_jobs);
        if let Some(cache) = &self.cache {
            engine = engine.with_cache(cache.clone());
        }
        engine.run(&self.points)
    }

    /// Runs the sweep twice and verifies per-point byte-identity of the
    /// results. The baseline arm is the pre-sweep bench loop: points one
    /// after another on one thread, without the estimate cache — so the
    /// recorded speedup is what sweep-level pooling and the cross-compilation
    /// cache add.
    pub fn compare(&self, total_jobs: usize) -> SweepComparison {
        let baseline = SweepEngine::new()
            .with_total_jobs(1)
            .with_shared_estimates(false);
        // Untimed warm-up: pay the one-off process costs (lazy allocations,
        // cold code paths) before either timed arm, so neither is biased.
        if let Some(first) = self.points.first() {
            baseline.run(std::slice::from_ref(first));
        }
        let sequential = baseline.run(&self.points);
        let parallel = self.run(total_jobs);
        let mut mismatches = Vec::new();
        for (seq, par) in sequential.points.iter().zip(&parallel.points) {
            if let Some(diff) = point_difference(seq, par) {
                mismatches.push(format!("{}: {}", seq.label, diff));
            }
        }
        SweepComparison {
            name: self.name.clone(),
            sequential_seconds: sequential.wall_seconds,
            outcome: parallel,
            mismatches,
        }
    }
}

/// Returns a description of the first way two outcomes of the same design
/// point differ, or `None` when they are byte-identical.
fn point_difference(seq: &SweepPointOutcome, par: &SweepPointOutcome) -> Option<String> {
    match (&seq.result, &par.result) {
        (Ok(a), Ok(b)) => compilation_difference(a, b),
        (Err(a), Err(b)) if a.to_string() == b.to_string() => None,
        (Err(_), Err(_)) => Some("error messages differ".to_string()),
        (Ok(_), Err(e)) => Some(format!("parallel run failed: {e}")),
        (Err(e), Ok(_)) => Some(format!("sequential run failed: {e}")),
    }
}

fn compilation_difference(a: &CompilationResult, b: &CompilationResult) -> Option<String> {
    if a.estimate != b.estimate {
        return Some("dataflow QoR estimates differ".to_string());
    }
    if a.estimate_sequential != b.estimate_sequential {
        return Some("sequential QoR estimates differ".to_string());
    }
    if a.hls_cpp != b.hls_cpp {
        return Some("emitted HLS C++ differs".to_string());
    }
    if print_op(&a.ctx, a.func) != print_op(&b.ctx, b.func) {
        return Some("printed IR differs".to_string());
    }
    None
}

/// The result of [`SweepRunner::compare`]: the pooled outcome, the sequential
/// baseline's wall-clock, and the byte-identity verdict.
#[derive(Debug)]
pub struct SweepComparison {
    /// The sweep's name.
    pub name: String,
    /// Wall-clock seconds of the sequential share-nothing loop.
    pub sequential_seconds: f64,
    /// The pooled, estimate-sharing run.
    pub outcome: SweepOutcome,
    /// Human-readable descriptions of per-point result differences (empty
    /// when the pooled run is byte-identical to the sequential loop).
    pub mismatches: Vec<String>,
}

impl SweepComparison {
    /// True when every design point's QoR, emitted C++ and printed IR matched
    /// between the sequential and pooled runs.
    pub fn qor_identical(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Wall-clock speedup of the pooled run over the sequential loop.
    pub fn speedup(&self) -> f64 {
        self.sequential_seconds / self.outcome.wall_seconds.max(f64::MIN_POSITIVE)
    }

    /// Prints the comparison summary to stdout.
    pub fn print_summary(&self) {
        let budget = self.outcome.budget;
        println!(
            "\n# Sweep '{}' ({} points)",
            self.name,
            self.outcome.points.len()
        );
        println!(
            "budget: {} concurrent points (machine parallelism {})",
            budget.pool_jobs,
            hida::ir::default_jobs()
        );
        println!(
            "wall-clock: sequential loop {:.3}s, pooled sweep {:.3}s -> {:.2}x speedup",
            self.sequential_seconds,
            self.outcome.wall_seconds,
            self.speedup()
        );
        if let Some(cache) = &self.outcome.shared_cache {
            println!("cross-compilation estimate cache: {cache}");
        }
        if let Some(persistent) = &self.outcome.persistent_cache {
            println!("persistent estimate store: {persistent}");
        }
        if self.qor_identical() {
            println!("per-point QoR: byte-identical to the sequential loop");
        } else {
            println!("per-point QoR MISMATCHES:");
            for m in &self.mismatches {
                println!("  {m}");
            }
        }
    }

    /// Renders the comparison as the JSON sweep report.
    pub fn to_json(&self) -> String {
        let budget = self.outcome.budget;
        let cache = self.outcome.shared_cache.unwrap_or_default();
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"sweep\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(
            out,
            "  \"available_parallelism\": {},",
            hida::ir::default_jobs()
        );
        let _ = writeln!(out, "  \"pool_jobs\": {},", budget.pool_jobs);
        let _ = writeln!(out, "  \"num_points\": {},", self.outcome.points.len());
        let _ = writeln!(
            out,
            "  \"sequential_seconds\": {:.6},",
            self.sequential_seconds
        );
        let _ = writeln!(
            out,
            "  \"parallel_seconds\": {:.6},",
            self.outcome.wall_seconds
        );
        let _ = writeln!(out, "  \"speedup\": {:.3},", self.speedup());
        let _ = writeln!(out, "  \"qor_identical\": {},", self.qor_identical());
        let _ = writeln!(
            out,
            "  \"shared_cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"hit_rate\": {:.3}}},",
            cache.hits,
            cache.misses,
            cache.entries,
            cache.hit_rate()
        );
        // Nonzero persistent hits mean this process was served estimates
        // written by an earlier one — the cold-vs-warm evidence the persist
        // CI stage greps for.
        match &self.outcome.persistent_cache {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "  \"persistent_cache\": {{\"hits\": {}, \"misses\": {}, \"writes\": {}, \
                     \"evictions\": {}, \"corrupt\": {}, \"write_errors\": {}, \
                     \"read_errors\": {}}},",
                    p.hits,
                    p.misses,
                    p.writes,
                    p.evictions,
                    p.corrupt,
                    p.write_errors,
                    p.read_errors
                );
            }
            None => out.push_str("  \"persistent_cache\": null,\n"),
        }
        out.push_str("  \"points\": [\n");
        for (i, point) in self.outcome.points.iter().enumerate() {
            let comma = if i + 1 < self.outcome.points.len() {
                ","
            } else {
                ""
            };
            match &point.result {
                Ok(result) => {
                    let _ = writeln!(
                        out,
                        "    {{\"label\": \"{}\", \"seconds\": {:.6}, \"throughput\": {:.3}, \
                         \"dsp\": {}, \"bram_18k\": {}, \"shared_hits\": {}, \"shared_misses\": {}}}{comma}",
                        json_escape(&point.label),
                        point.seconds,
                        result.estimate.throughput(),
                        result.estimate.resources.dsp,
                        result.estimate.resources.bram_18k,
                        result.shared_estimator_cache.map_or(0, |c| c.hits),
                        result.shared_estimator_cache.map_or(0, |c| c.misses),
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "    {{\"label\": \"{}\", \"seconds\": {:.6}, \"error\": \"{}\"}}{comma}",
                        json_escape(&point.label),
                        point.seconds,
                        json_escape(&e.to_string()),
                    );
                }
            }
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`SweepComparison::to_json`] to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida::{HidaOptions, PolybenchKernel, Workload};

    #[test]
    fn two_point_comparison_is_identical_and_reports_cache_traffic() {
        let options = HidaOptions::polybench();
        let runner = SweepRunner::new("test-sweep")
            .point(SweepPoint::new(
                "a",
                Workload::PolybenchSized(PolybenchKernel::TwoMm, 32),
                options.clone(),
            ))
            .point(SweepPoint::new(
                "b",
                Workload::PolybenchSized(PolybenchKernel::TwoMm, 32),
                options,
            ));
        assert_eq!(runner.len(), 2);
        // One point at a time: the second point's estimates are all shared.
        let serial = runner.compare(1);
        assert_eq!(serial.outcome.budget.pool_jobs, 1);
        assert!(serial.qor_identical(), "{:?}", serial.mismatches);
        let serial_cache = serial.outcome.shared_cache.unwrap();
        assert!(serial_cache.hits > 0, "{serial_cache:?}");
        // Both points at once: they may both miss on the same node, so only
        // the number of lookups is deterministic.
        let comparison = runner.compare(2);
        assert!(comparison.qor_identical(), "{:?}", comparison.mismatches);
        assert!(comparison.outcome.all_ok());
        let cache = comparison.outcome.shared_cache.unwrap();
        assert_eq!(
            cache.hits + cache.misses,
            serial_cache.hits + serial_cache.misses,
            "{cache:?}"
        );
        let json = comparison.to_json();
        assert!(json.contains("\"qor_identical\": true"), "{json}");
        assert!(json.contains("\"sweep\": \"test-sweep\""), "{json}");
        comparison.print_summary();
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
