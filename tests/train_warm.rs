//! Warm-path training contracts, end to end through the public API.
//!
//! The solve cache canonicalizes every training sample to its template
//! multiset and memoizes the A* solve, and every solve starts from an
//! empty heuristic memo. Those two design points buy the properties pinned
//! here:
//!
//! * **Thread invariance** — cold training is bit-identical across any
//!   `ModelConfig::threads`, because each solve is a pure function of
//!   `(spec, goal, search config, signature)`.
//! * **Zero-solve warm retrain** — `retrain_from` on an unchanged template
//!   mix re-runs no A* searches and reproduces the cold model bit for bit.
//! * **Warm equals cold** — a reseeded `retrain_from` builds the same tree
//!   as a cold `train` of the reseeded configuration: what the cache holds
//!   changes how many solves run, never the model.
//! * **Eviction-safe determinism** — a capacity-1 cache evicts almost
//!   everything, yet rebuilding the identical scenario from scratch yields
//!   the identical model: eviction affects cost, never results.
//! * **Flat predict correctness** — the iterative flat-array `predict`
//!   agrees with a recursive reference evaluator walking the serialized
//!   node arrays.

use proptest::prelude::*;

use wisedb::advisor::{DecisionModel, ModelConfig, ModelGenerator};
use wisedb::learn::DecisionTree;
use wisedb::prelude::*;

fn tiny_spec() -> WorkloadSpec {
    WorkloadSpec::single_vm(
        vec![
            ("T1", Millis::from_secs(80)),
            ("T2", Millis::from_secs(160)),
            ("T3", Millis::from_secs(300)),
        ],
        VmType::t2_medium(),
    )
    .unwrap()
}

fn tiny_config(threads: usize, cache_capacity: usize, seed: u64) -> ModelConfig {
    ModelConfig {
        num_samples: 14,
        sample_size: 4,
        ..ModelConfig::fast()
    }
    .with_seed(seed)
    .with_threads(threads)
    .with_cache_capacity(cache_capacity)
}

fn arb_goal_kind() -> impl Strategy<Value = GoalKind> {
    prop_oneof![
        Just(GoalKind::PerQuery),
        Just(GoalKind::MaxLatency),
        Just(GoalKind::AverageLatency),
        Just(GoalKind::Percentile),
    ]
}

fn generator(kind: GoalKind, cfg: ModelConfig) -> ModelGenerator {
    let spec = tiny_spec();
    let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
    ModelGenerator::new(spec, goal, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, .. ProptestConfig::default()
    })]

    /// Cold training is bit-identical across thread counts: the sharded
    /// solver merges per-signature results in deterministic order and every
    /// solve starts from an empty memo.
    #[test]
    fn cold_training_is_thread_invariant(
        kind in arb_goal_kind(),
        threads_a in 1usize..=4,
        threads_b in 1usize..=4,
        seed in 1u64..1000,
    ) {
        let a = generator(kind, tiny_config(threads_a, 0, seed)).train().unwrap();
        let b = generator(kind, tiny_config(threads_b, 0, seed)).train().unwrap();
        prop_assert_eq!(a.tree(), b.tree());
        prop_assert_eq!(a.stats().num_rows, b.stats().num_rows);
        prop_assert_eq!(a.stats().solves, b.stats().solves);
    }

    /// `retrain_from` on an unchanged sample mix performs zero A* solves
    /// and reproduces the cold model bit for bit — regardless of the thread
    /// count the warm run asks for.
    #[test]
    fn warm_retrain_runs_zero_solves_and_matches_cold(
        kind in arb_goal_kind(),
        cold_threads in 1usize..=4,
        warm_threads in 1usize..=4,
        seed in 1u64..1000,
    ) {
        let (cold, artifacts) = generator(kind, tiny_config(cold_threads, 0, seed))
            .train_with_artifacts()
            .unwrap();
        let warm_start = artifacts.warm_start();
        let (warm, _) = generator(kind, tiny_config(warm_threads, 0, seed))
            .retrain_from(&warm_start)
            .unwrap();
        prop_assert_eq!(warm.stats().solves, 0);
        prop_assert_eq!(warm.stats().cache_hits, warm.stats().num_samples as u64);
        prop_assert_eq!(warm.tree(), cold.tree());
        prop_assert_eq!(warm.stats().num_rows, cold.stats().num_rows);
    }

    /// A capacity-1 cache evicts on every distinct signature, so a warm
    /// retrain re-solves most of the draw — but the whole scenario rebuilt
    /// from scratch lands on the identical model, and the cache never
    /// exceeds its bound. Eviction costs time, never changes results.
    #[test]
    fn eviction_changes_cost_not_results(
        kind in arb_goal_kind(),
        threads in 1usize..=4,
        seed in 1u64..1000,
    ) {
        let run = || {
            let gen = generator(kind, tiny_config(threads, 1, seed));
            let (cold, artifacts) = gen.train_with_artifacts().unwrap();
            let warm_start = artifacts.warm_start();
            assert!(warm_start.cache().len() <= 1, "cache exceeded its bound");
            let reseeded = generator(kind, tiny_config(threads, 1, seed ^ 0xD1F7));
            let (shifted, _) = reseeded.retrain_from(&warm_start).unwrap();
            (cold, shifted)
        };
        let (cold_a, shifted_a) = run();
        let (cold_b, shifted_b) = run();
        prop_assert_eq!(cold_a.tree(), cold_b.tree());
        prop_assert_eq!(shifted_a.tree(), shifted_b.tree());
        prop_assert_eq!(shifted_a.stats().solves, shifted_b.stats().solves);
        prop_assert_eq!(shifted_a.stats().num_rows, shifted_b.stats().num_rows);
    }

    /// Reseeded warm retrains (the drift loop's realistic step) are
    /// reproducible: two independently built caches produce the same
    /// retrained model and the same solve/hit split, and that model is the
    /// one a cold train of the reseeded configuration builds.
    #[test]
    fn reseeded_retrain_is_deterministic(
        kind in arb_goal_kind(),
        threads_a in 1usize..=4,
        threads_b in 1usize..=4,
        seed in 1u64..1000,
    ) {
        let (a, cold) = reseeded_retrain(kind, threads_a, seed);
        let (b, _) = reseeded_retrain(kind, threads_b, seed);
        prop_assert_eq!(a.tree(), b.tree());
        prop_assert_eq!(a.stats().solves, b.stats().solves);
        prop_assert_eq!(a.stats().cache_hits, b.stats().cache_hits);
        prop_assert_eq!(a.stats().num_rows, b.stats().num_rows);
        prop_assert_eq!(a.tree(), cold.tree());
    }
}

/// Trains `seed` through a fresh cache, then retrains a reseeded draw from
/// that cache. Returns the warm retrain and a cold train of the reseeded
/// configuration.
fn reseeded_retrain(kind: GoalKind, threads: usize, seed: u64) -> (DecisionModel, DecisionModel) {
    let (_, artifacts) = generator(kind, tiny_config(threads, 0, seed))
        .train_with_artifacts()
        .unwrap();
    let reseeded = generator(kind, tiny_config(threads, 0, seed.wrapping_mul(31) + 7));
    let warm = reseeded.retrain_from(&artifacts.warm_start()).unwrap().0;
    (warm, reseeded.train().unwrap())
}

/// A fixed case of the warm-equals-cold property: seed 6 is one where a
/// heuristic memo carried over from the first train's solves changes the
/// reseeded retrain's tree, so a retrain must not consult one.
#[test]
fn reseeded_per_query_retrain_equals_cold_train() {
    let (warm, cold) = reseeded_retrain(GoalKind::PerQuery, 1, 6);
    assert!(warm.stats().cache_hits > 0, "the draws share no signature");
    assert_eq!(warm.tree(), cold.tree());
    assert_eq!(warm.stats().num_rows, cold.stats().num_rows);
}

// ---------------------------------------------------------------------------
// Flat-array predict: differential against a recursive reference
// ---------------------------------------------------------------------------

/// The node arrays of a serialized tree, extracted for reference evaluation.
struct FlatArrays {
    feature: Vec<u64>,
    threshold: Vec<f64>,
    right: Vec<u64>,
    num_features: usize,
}

fn extract_arrays(tree: &DecisionTree) -> FlatArrays {
    let json = serde_json::to_string(tree).unwrap();
    let v = serde_json::from_str_value(&json).unwrap();
    let ints = |name: &str| -> Vec<u64> {
        v.get(name)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect()
    };
    let floats = v
        .get("threshold")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|x| x.as_f64().unwrap())
        .collect();
    FlatArrays {
        feature: ints("feature"),
        threshold: floats,
        right: ints("right"),
        num_features: v.get("num_features").unwrap().as_u64().unwrap() as usize,
    }
}

/// The retired recursive evaluator, reconstructed over the flat arrays:
/// descend left to `i + 1` on `features[f] < threshold`, else jump to
/// `right[i]`, until a leaf (`feature == u32::MAX`) yields its label.
fn predict_recursive(t: &FlatArrays, features: &[f64], i: usize) -> usize {
    if t.feature[i] == u64::from(u32::MAX) {
        return t.right[i] as usize;
    }
    if features[t.feature[i] as usize] < t.threshold[i] {
        predict_recursive(t, features, i + 1)
    } else {
        predict_recursive(t, features, t.right[i] as usize)
    }
}

#[test]
fn flat_predict_matches_recursive_reference() {
    let model = generator(GoalKind::MaxLatency, tiny_config(2, 0, 42))
        .train()
        .unwrap();
    let arrays = extract_arrays(model.tree());
    // Deterministic pseudo-random probe vectors spanning the value shapes
    // the features produce: small counts, waits, and infinite costs.
    let mut state = 0x9E37_79B9_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..2000 {
        let features: Vec<f64> = (0..arrays.num_features)
            .map(|_| match next() % 5 {
                0 => f64::INFINITY,
                1 => 0.0,
                k => (next() % 600) as f64 / k as f64,
            })
            .collect();
        assert_eq!(
            model.tree().predict(&features),
            predict_recursive(&arrays, &features, 0),
        );
    }
}
