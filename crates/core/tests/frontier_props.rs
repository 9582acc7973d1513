//! Property tests for the explorer's Pareto frontier: dominance is a strict
//! partial order, incremental insert/prune matches a brute-force
//! non-dominated filter, a non-dominated insert is never dropped, and the
//! frontier of a point set is invariant under permutation of the insertion
//! order. End-to-end cases hold the explorer to the same standard on the
//! reduced Fig. 10 grid: full frontier coverage with at least one compile
//! pruned, the same exploration at any job count, and injected faults dealt
//! wave by wave.

use hida::explore::{dominates, Frontier, FrontierPoint, KnobLattice};
use hida::{
    ExploreConfig, ExploreOutcome, Explorer, FailureReason, FaultPlan, HidaOptions, Model,
    Objective, SweepEngine, SweepPoint, Workload,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Brute-force reference: the non-dominated subset of `vectors`, as a sorted,
/// deduplicated-by-identity multiset of vectors (ties are kept, exact
/// duplicates all survive — mirroring the frontier's tie policy).
fn reference_frontier(vectors: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let mut keep: Vec<Vec<i64>> = vectors
        .iter()
        .filter(|v| !vectors.iter().any(|other| dominates(other, v)))
        .cloned()
        .collect();
    keep.sort();
    keep
}

/// Builds a frontier by inserting `vectors` in order; labels are unique per
/// index so ties stay distinguishable.
fn build_frontier(vectors: &[Vec<i64>]) -> Frontier {
    let mut frontier = Frontier::new();
    for (i, v) in vectors.iter().enumerate() {
        frontier.insert(FrontierPoint::from_vector(format!("p{i:03}"), v.clone()));
    }
    frontier
}

proptest! {
    /// Dominance is irreflexive, asymmetric and transitive on sampled
    /// vector triples — a strict partial order.
    #[test]
    fn dominance_is_a_strict_partial_order(
        a in prop::collection::vec(0_i64..6, 3..4),
        b in prop::collection::vec(0_i64..6, 3..4),
        c in prop::collection::vec(0_i64..6, 3..4),
    ) {
        prop_assert!(!dominates(&a, &a));
        if dominates(&a, &b) {
            prop_assert!(!dominates(&b, &a));
        }
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    /// Incremental insert/prune computes exactly the brute-force
    /// non-dominated set (ties included).
    #[test]
    fn incremental_frontier_matches_brute_force(
        vectors in prop::collection::vec(prop::collection::vec(0_i64..8, 3..4), 1..24),
    ) {
        let frontier = build_frontier(&vectors);
        prop_assert_eq!(frontier.vectors(), reference_frontier(&vectors));
    }

    /// Inserting a point no current frontier member dominates always
    /// succeeds and the point is present afterwards — insert/prune never
    /// drops a non-dominated point.
    #[test]
    fn non_dominated_insert_is_never_dropped(
        vectors in prop::collection::vec(prop::collection::vec(0_i64..8, 3..4), 1..16),
        candidate in prop::collection::vec(0_i64..8, 3..4),
    ) {
        let mut frontier = build_frontier(&vectors);
        prop_assume!(!frontier.would_prune(&candidate));
        let inserted = frontier.insert(FrontierPoint::from_vector("probe", candidate.clone()));
        prop_assert!(inserted);
        prop_assert!(frontier.vectors().contains(&candidate));
        // And the insert kept the invariant: nothing on the frontier is
        // dominated by anything else on it.
        let vectors_after = frontier.vectors();
        for v in &vectors_after {
            prop_assert!(!vectors_after.iter().any(|other| dominates(other, v)));
        }
    }

    /// The frontier of a shuffled point set is permutation-invariant: a
    /// sampled permutation of the insertion order yields an identical
    /// (sorted) vector set.
    #[test]
    fn frontier_is_permutation_invariant(
        vectors in prop::collection::vec(prop::collection::vec(0_i64..8, 3..4), 1..20),
        swaps in prop::collection::vec((0_usize..20, 0_usize..20), 0..32),
    ) {
        let mut shuffled = vectors.clone();
        for (i, j) in swaps {
            let (i, j) = (i % shuffled.len(), j % shuffled.len());
            shuffled.swap(i, j);
        }
        let original = build_frontier(&vectors);
        let permuted = build_frontier(&shuffled);
        prop_assert_eq!(original.vectors(), permuted.vectors());
    }
}

/// The reduced Fig. 10 grid: ResNet-18, parallel factor x tile size.
fn reduced_fig10_grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for pf in [1, 8, 64, 256] {
        for tile in [2, 8, 32] {
            let pipeline = format!(
                "construct,fusion,lower,multi-producer-elim,\
                 tiling{{factor={tile},external-threshold-bytes=65536}},\
                 balance{{external-threshold-bytes=65536}},\
                 parallelize{{max-factor={pf},mode=IA+CA,device=vu9p-slr}}"
            );
            points.push(
                SweepPoint::new(
                    format!("pf{pf}-tile{tile}"),
                    Workload::Model(Model::ResNet18),
                    HidaOptions::dnn(),
                )
                .with_pipeline(pipeline),
            );
        }
    }
    points
}

/// The explorer against the exhaustive sweep of the reduced Fig. 10 grid
/// (ResNet-18, parallel factor x tile size): it must recover every point of
/// the exhaustive Pareto frontier while compiling strictly fewer candidates,
/// and agree exactly on the QoR of every point both arms compiled. The arms
/// use separate fresh estimate caches — sharing one would let the explorer's
/// probes hit the exhaustive arm's results and fake the savings.
#[test]
fn explorer_covers_the_reduced_fig10_frontier_with_fewer_compiles() {
    let points = reduced_fig10_grid();
    let objectives = [Objective::Throughput, Objective::Dsp, Objective::Bram];

    let exhaustive = SweepEngine::new().with_total_jobs(4).run(&points);
    assert!(exhaustive.all_ok(), "{:?}", exhaustive.failed_labels());
    let vector_of = |label: &str| -> Vec<i64> {
        let point = exhaustive.points.iter().find(|p| p.label == label).unwrap();
        let estimate = &point.result.as_ref().unwrap().estimate;
        objectives.iter().map(|o| o.value(estimate)).collect()
    };
    let mut reference = Frontier::new();
    for point in &points {
        reference.insert(FrontierPoint::from_vector(
            point.label.clone(),
            vector_of(&point.label),
        ));
    }

    let explored = Explorer::new(ExploreConfig::default())
        .with_total_jobs(4)
        .explore(&points)
        .unwrap();
    assert!(explored.all_ok(), "{:?}", explored.failed_labels());
    assert_eq!(
        explored.frontier.vectors(),
        reference.vectors(),
        "the explorer must recover the whole exhaustive frontier"
    );
    assert!(
        explored.pruned >= 1 && explored.points.len() < points.len(),
        "surrogate pruning never fired: {} of {} compiled",
        explored.points.len(),
        points.len()
    );
    for point in &explored.points {
        let estimate = &point.result.as_ref().unwrap().estimate;
        let vector: Vec<i64> = objectives.iter().map(|o| o.value(estimate)).collect();
        assert_eq!(vector, vector_of(&point.label), "{}", point.label);
    }
}

/// Determinism where pruning actually happens. A generation lowers its whole
/// wave through the pool, waits, then finishes the survivors through the pool
/// from those same designs; every pruning verdict is taken against
/// generation-start state, so nothing the schedule decides can show: the
/// frontier, every generation counter (pruned, probe hits, probe nodes) and
/// the order of the compiled points are equal at 1, 2 and 4 jobs — and a
/// design finished from a pooled lowering against the shared cache is the
/// design a share-nothing compile of the point produces.
#[test]
fn exploration_with_pruning_is_identical_at_any_job_count() {
    let points = reduced_fig10_grid();
    let explore = |jobs: usize| {
        let outcome = Explorer::new(ExploreConfig::default())
            .with_total_jobs(jobs)
            .explore(&points)
            .unwrap();
        assert!(outcome.all_ok(), "{:?}", outcome.failed_labels());
        outcome
    };
    let labels = |o: &ExploreOutcome| o.points.iter().map(|p| p.label.clone()).collect::<Vec<_>>();

    let sequential = explore(1);
    assert!(sequential.pruned >= 1, "the grid must exercise pruning");
    for jobs in [2, 4] {
        let pooled = explore(jobs);
        assert_eq!(pooled.frontier.vectors(), sequential.frontier.vectors());
        assert_eq!(pooled.generations, sequential.generations, "jobs {jobs}");
        assert_eq!(labels(&pooled), labels(&sequential), "jobs {jobs}");
        assert_eq!(pooled.pruned, sequential.pruned);
    }

    for explored in &sequential.points {
        let point = points.iter().find(|p| p.label == explored.label).unwrap();
        let alone = point.compiler().compile(point.workload.clone()).unwrap();
        let result = explored.result.as_ref().unwrap();
        assert_eq!(result.hls_cpp, alone.hls_cpp, "{}", point.label);
        assert_eq!(result.estimate, alone.estimate, "{}", point.label);
        assert_eq!(
            result.estimate_sequential, alone.estimate_sequential,
            "{}",
            point.label
        );
    }
}

/// Faults are dealt over each generation's whole wave, before anything is
/// known about pruning, and fire inside the pooled lowering: a pass panic
/// fails exactly the candidates the plan assigns wave by wave — the waves
/// being a property of the lattice alone — at any job count, and leaves the
/// other candidates' exploration standing.
#[test]
fn injected_faults_are_dealt_per_wave_and_fire_in_the_pooled_lowering() {
    hida_ir_core::fault::silence_expected_panics();
    let points = reduced_fig10_grid();
    let plan = FaultPlan::parse("seed=11,pass-panic=1").unwrap();

    let lattice = KnobLattice::build(&points).unwrap();
    let mut visited = vec![false; points.len()];
    let mut wave = lattice.seed_candidates(0, 0);
    let mut expected = BTreeSet::new();
    while !wave.is_empty() {
        let labels: Vec<String> = wave.iter().map(|&i| points[i].label.clone()).collect();
        expected.extend(plan.assign(&labels).into_keys());
        for &i in &wave {
            visited[i] = true;
        }
        let next: BTreeSet<usize> = wave
            .iter()
            .flat_map(|&i| lattice.neighbors(i))
            .filter(|&n| !visited[n])
            .collect();
        wave = next.into_iter().collect();
    }
    assert!(expected.len() >= 2, "one afflicted candidate per wave");

    for jobs in [1, 4] {
        let engine = SweepEngine::new()
            .with_total_jobs(jobs)
            .with_fault_plan(plan.clone());
        let outcome = Explorer::new(ExploreConfig::default())
            .with_engine(engine)
            .explore(&points)
            .unwrap();
        let failed: BTreeSet<String> = outcome
            .failed_labels()
            .into_iter()
            .map(str::to_string)
            .collect();
        assert_eq!(failed, expected, "jobs {jobs}");
        for point in outcome.points.iter().filter(|p| p.result.is_err()) {
            assert_eq!(point.failure_reason(), Some(FailureReason::Panicked));
        }
        assert!(!outcome.frontier.is_empty());
    }
}
