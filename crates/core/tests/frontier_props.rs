//! Property tests for the explorer's Pareto frontier: dominance is a strict
//! partial order, incremental insert/prune matches a brute-force
//! non-dominated filter, a non-dominated insert is never dropped, and the
//! frontier of a point set is invariant under permutation of the insertion
//! order. One end-to-end case holds the explorer to the same standard on the
//! reduced Fig. 10 grid: full frontier coverage with at least one compile
//! pruned.

use hida::explore::{dominates, Frontier, FrontierPoint};
use hida::{
    ExploreConfig, Explorer, HidaOptions, JobBudget, Model, Objective, SweepEngine, SweepPoint,
    Workload,
};
use proptest::prelude::*;

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

/// The explorer against the exhaustive sweep of the reduced Fig. 10 grid
/// (ResNet-18, parallel factor x tile size): it must recover every point of
/// the exhaustive Pareto frontier while compiling strictly fewer candidates,
/// and agree exactly on the QoR of every point both arms compiled. The arms
/// use separate fresh estimate caches — sharing one would let the explorer's
/// probes hit the exhaustive arm's results and fake the savings.
#[test]
fn explorer_covers_the_reduced_fig10_frontier_with_fewer_compiles() {
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
    let objectives = [Objective::Throughput, Objective::Dsp, Objective::Bram];

    let exhaustive = SweepEngine::new()
        .with_budget(JobBudget::for_points(4, points.len()))
        .run(&points);
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
