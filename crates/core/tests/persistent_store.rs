//! Integration tests for the persistent estimate store underneath the sweep
//! engine: two engines that share only a store *directory* — the in-process
//! simulation of two separate CLI/CI processes — must reuse each other's
//! estimates with byte-identical QoR, a corrupted store must degrade to
//! misses without affecting results, and every batch driver must have
//! published its one segment by the time it returns.

use hida::ir::printer::print_op;
use hida::{
    CompilationResult, EstimateStore, ExploreConfig, Explorer, HidaOptions, PolybenchKernel,
    SharedEstimateCache, SweepEngine, SweepOutcome, SweepPoint, Workload,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn two_mm(size: i64) -> Workload {
    Workload::PolybenchSized(PolybenchKernel::TwoMm, size)
}

fn points() -> Vec<SweepPoint> {
    [8_i64, 16]
        .iter()
        .map(|&factor| {
            SweepPoint::new(
                format!("pf{factor}"),
                two_mm(32),
                HidaOptions {
                    max_parallel_factor: factor,
                    ..HidaOptions::polybench()
                },
            )
        })
        .collect()
}

fn temp_store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hida_persistent_sweep_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A *fresh* cache handle over `dir` — each one stands in for a separate
/// process sharing the store directory.
fn cache_over(dir: &Path) -> Arc<SharedEstimateCache> {
    let store = EstimateStore::open(dir).expect("open store");
    Arc::new(SharedEstimateCache::with_store(store))
}

/// One sequential sweep over `points()` with a fresh handle over `dir`.
fn run_with_store(dir: &Path) -> SweepOutcome {
    SweepEngine::new()
        .with_total_jobs(1)
        .with_cache(cache_over(dir))
        .run(&points())
}

/// The `*.seg` files in `dir`; anything else there fails the test.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    paths.sort();
    for path in &paths {
        let segment = path.is_file() && path.extension().is_some_and(|e| e == "seg");
        assert!(segment, "unexpected {} in the store", path.display());
    }
    paths
}

fn assert_identical(a: &CompilationResult, b: &CompilationResult, label: &str) {
    assert_eq!(a.estimate, b.estimate, "{label}: dataflow estimate");
    assert_eq!(
        a.estimate_sequential, b.estimate_sequential,
        "{label}: sequential estimate"
    );
    assert_eq!(a.hls_cpp, b.hls_cpp, "{label}: emitted HLS C++");
    assert_eq!(
        print_op(&a.ctx, a.func),
        print_op(&b.ctx, b.func),
        "{label}: printed IR"
    );
}

#[test]
fn second_engine_over_the_same_directory_reuses_estimates() {
    let dir = temp_store_dir("reuse");

    // "Process" one: cold store — every estimate is computed and written back.
    let cold = run_with_store(&dir);
    assert!(cold.all_ok());
    let cold_store = cold.persistent_cache.expect("store attached");
    assert_eq!(cold_store.hits, 0, "{cold_store:?}");
    assert!(cold_store.writes > 0, "{cold_store:?}");

    // One batch, one file, and nothing else left behind.
    let published = segments(&dir);
    assert_eq!(published.len(), 1, "{published:?}");

    // "Process" two: fresh cache handle, same directory — served from disk.
    let warm = run_with_store(&dir);
    assert!(warm.all_ok());
    let warm_store = warm.persistent_cache.expect("store attached");
    // Every lookup the cold run missed is a hit now.
    assert_eq!(warm_store.hits, cold_store.misses, "{warm_store:?}");
    assert_eq!(warm_store.misses, 0, "{warm_store:?}");
    assert_eq!(warm_store.writes, 0, "{warm_store:?}");
    // A warm run writes nothing under the directory.
    assert_eq!(segments(&dir), published);

    // The reuse must be invisible in the results: byte-identical QoR, C++ and
    // IR between the cold and warm runs.
    for (a, b) in cold.points.iter().zip(&warm.points) {
        assert_identical(
            a.result.as_ref().unwrap(),
            b.result.as_ref().unwrap(),
            &a.label,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_degrades_to_misses_with_identical_results() {
    let dir = temp_store_dir("corrupt");
    let cold = run_with_store(&dir);
    assert!(cold.all_ok());
    let distinct_keys = cold.persistent_cache.expect("store attached").writes;

    // Vandalize every segment in the store.
    let probe = EstimateStore::open(&dir).expect("open store");
    assert!(probe.disk_entries() > 0);
    for segment in segments(&dir) {
        std::fs::write(segment, b"not an estimate segment").unwrap();
    }

    // The next "process" sees only corrupt segments: all misses, everything
    // recomputed and re-published, and the QoR unchanged.
    let recovered = run_with_store(&dir);
    assert!(recovered.all_ok());
    let store_stats = recovered.persistent_cache.expect("store attached");
    assert_eq!(store_stats.hits, 0, "{store_stats:?}");
    assert!(store_stats.corrupt > 0, "{store_stats:?}");
    assert!(store_stats.writes > 0, "{store_stats:?}");
    for (a, b) in cold.points.iter().zip(&recovered.points) {
        assert_identical(
            a.result.as_ref().unwrap(),
            b.result.as_ref().unwrap(),
            &a.label,
        );
    }

    // And the re-published entries serve the run after that.
    let warm = run_with_store(&dir);
    let warm_store = warm.persistent_cache.expect("store attached");
    assert!(warm_store.hits > 0, "{warm_store:?}");
    assert_eq!(warm_store.corrupt, 0, "{warm_store:?}");

    // A segment cut short: the whole entries in front of the cut are hits,
    // the rest recomputed, and the run's one publish writes both back — the
    // run after it is all hits again.
    let published = segments(&dir);
    assert_eq!(published.len(), 1, "{published:?}");
    let bytes = std::fs::read(&published[0]).unwrap();
    std::fs::write(&published[0], &bytes[..bytes.len() - 1]).unwrap();
    let healing = run_with_store(&dir);
    let healing_store = healing.persistent_cache.expect("store attached");
    assert_eq!(healing_store.corrupt, 1, "{healing_store:?}");
    assert!(
        healing_store.hits > 0 && healing_store.misses > 0,
        "{healing_store:?}"
    );
    assert_eq!(healing_store.writes, distinct_keys, "{healing_store:?}");
    assert_eq!(segments(&dir).len(), 1);
    let healed = run_with_store(&dir).persistent_cache.unwrap();
    assert_eq!(
        (healed.misses, healed.corrupt, healed.writes),
        (0, 0, 0),
        "{healed:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store directory is replaced by a regular file between `open` and the
/// end-of-sweep publish: the publish fails, every pending entry is a counted
/// write error, and the results are those of a run without a store — at one
/// worker and pooled, with the same counters.
#[test]
fn store_directory_replaced_by_a_file_costs_only_counted_write_errors() {
    let mut counters = Vec::new();
    for jobs in [1, 4] {
        let plain = SweepEngine::new().with_total_jobs(jobs).run(&points());
        let dir = temp_store_dir("replaced");
        let cache = cache_over(&dir);
        std::fs::remove_dir(&dir).expect("open created an empty store directory");
        std::fs::write(&dir, b"not a directory").unwrap();
        let outcome = SweepEngine::new()
            .with_total_jobs(jobs)
            .with_cache(cache)
            .run(&points());
        assert!(outcome.all_ok(), "an unwritable store never fails the run");
        let stats = outcome.persistent_cache.expect("store attached");
        assert!(stats.write_errors > 0, "{stats:?}");
        assert_eq!((stats.writes, stats.hits), (0, 0), "{stats:?}");
        // Each distinct key is one write error; 2mm's two products share one.
        assert!(stats.write_errors < stats.misses, "{stats:?}");
        counters.push(stats);
        assert!(dir.is_file(), "nothing was published, nothing repaired");
        for (a, b) in plain.points.iter().zip(&outcome.points) {
            assert_identical(
                a.result.as_ref().unwrap(),
                b.result.as_ref().unwrap(),
                &a.label,
            );
        }
        let _ = std::fs::remove_file(&dir);
    }
    assert_eq!(
        counters[0], counters[1],
        "store counters depend on the job count"
    );
}

/// Each batch driver publishes before it returns and before it reads the
/// counters it reports — `Drop` is only the backstop (a caller that ends in
/// `std::process::exit`, like `fig10_ablation` on a QoR mismatch, never runs
/// it). The cache `Arc` stays alive across every assertion here.
#[test]
fn batch_drivers_publish_their_segment_before_they_return() {
    let dir = temp_store_dir("flush_order");
    let cache = cache_over(&dir);
    let engine = SweepEngine::new()
        .with_total_jobs(1)
        .with_cache(cache.clone());
    let sweep = engine.run(&points());
    let stats = sweep.persistent_cache.expect("store attached");
    assert_eq!(stats.hits, 0, "{stats:?}");
    assert!(stats.writes > 0, "{stats:?}");
    assert!(
        stats.writes < stats.misses,
        "each distinct key published once"
    );
    assert_eq!(segments(&dir).len(), 1);

    // Nothing new estimated, nothing written: the handle serves what it
    // published.
    let again = engine.run(&points()).persistent_cache.unwrap();
    assert_eq!((again.hits, again.writes), (stats.misses, stats.writes));
    assert_eq!(segments(&dir).len(), 1);

    // The explorer publishes once per exploration too.
    let explore_dir = temp_store_dir("flush_order_explore");
    let explore_cache = cache_over(&explore_dir);
    let explored = Explorer::new(ExploreConfig::default())
        .with_engine(
            SweepEngine::new()
                .with_total_jobs(1)
                .with_cache(explore_cache.clone()),
        )
        .explore(&points())
        .expect("explore");
    let explored_stats = explored.persistent_cache.expect("store attached");
    assert!(explored_stats.writes > 0, "{explored_stats:?}");
    assert_eq!(segments(&explore_dir).len(), 1);

    drop((cache, explore_cache));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&explore_dir);
}
