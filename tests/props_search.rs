//! Property-based tests on the search layer's invariants.

use proptest::prelude::*;

use wisedb::prelude::*;
use wisedb::search::{AdaptiveSearcher, SearchConfig};
use wisedb_core::PenaltyRate;

/// A small random spec: 2–3 templates with latencies 30 s – 5 min on one
/// VM type.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    proptest::collection::vec(30u64..300, 2..=3).prop_map(|secs| {
        WorkloadSpec::single_vm(
            secs.into_iter()
                .enumerate()
                .map(|(i, s)| (format!("T{}", i + 1), Millis::from_secs(s)))
                .collect::<Vec<_>>(),
            VmType::t2_medium(),
        )
        .unwrap()
    })
}

fn arb_goal(spec: &WorkloadSpec) -> impl Strategy<Value = PerformanceGoal> {
    let nt = spec.num_templates();
    let latencies: Vec<Millis> = spec
        .templates()
        .iter()
        .map(|t| t.min_latency().unwrap())
        .collect();
    let longest = latencies.iter().copied().max().unwrap();
    let mean = latencies.iter().copied().sum::<Millis>() / nt as u64;
    prop_oneof![
        (11u64..40).prop_map({
            let latencies = latencies.clone();
            move |f| PerformanceGoal::PerQuery {
                deadlines: latencies
                    .iter()
                    .map(|l| l.mul_f64(f as f64 / 10.0))
                    .collect(),
                rate: PenaltyRate::CENT_PER_SECOND,
            }
        }),
        (11u64..40).prop_map(move |f| PerformanceGoal::MaxLatency {
            deadline: longest.mul_f64(f as f64 / 10.0),
            rate: PenaltyRate::CENT_PER_SECOND,
        }),
        (11u64..40).prop_map(move |f| PerformanceGoal::AverageLatency {
            target: mean.mul_f64(f as f64 / 10.0),
            rate: PenaltyRate::CENT_PER_SECOND,
        }),
        ((11u64..40), (50.0f64..100.0)).prop_map(move |(f, p)| PerformanceGoal::Percentile {
            percent: p,
            deadline: mean.mul_f64(f as f64 / 10.0),
            rate: PenaltyRate::CENT_PER_SECOND,
        }),
    ]
}

/// (spec, goal, workload counts) with at most 6 queries.
fn arb_instance() -> impl Strategy<Value = (WorkloadSpec, PerformanceGoal, Vec<u32>)> {
    arb_spec().prop_flat_map(|spec| {
        let nt = spec.num_templates();
        let goal = arb_goal(&spec);
        let counts = proptest::collection::vec(0u32..=3, nt)
            .prop_filter("at least one query", |c| {
                c.iter().sum::<u32>() > 0 && c.iter().sum::<u32>() <= 6
            });
        (Just(spec), goal, counts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, .. ProptestConfig::default()
    })]

    /// A* schedules are complete, their reported cost equals the analytic
    /// Eq. 1 cost, and they never lose to any greedy baseline.
    #[test]
    fn astar_beats_every_baseline((spec, goal, counts) in arb_instance()) {
        let workload = Workload::from_counts(&counts);
        let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
        prop_assert!(result.stats.optimal);
        result.schedule.validate_complete(&workload).unwrap();

        let analytic = total_cost(&spec, &goal, &result.schedule).unwrap();
        prop_assert!(result.cost.approx_eq(analytic, 1e-9),
            "reported {} vs analytic {}", result.cost, analytic);

        for h in Heuristic::ALL {
            let s = h.schedule(&spec, &goal, &workload).unwrap();
            s.validate_complete(&workload).unwrap();
            let c = total_cost(&spec, &goal, &s).unwrap();
            prop_assert!(
                result.cost.as_dollars() <= c.as_dollars() + 1e-9,
                "A* {} lost to {} {}", result.cost, h.name(), c
            );
        }
    }

    /// The heuristic never overestimates: along the optimal path, the
    /// estimate at every vertex is at most the remaining path cost.
    #[test]
    fn heuristic_is_admissible_along_optimal_paths((spec, goal, counts) in arb_instance()) {
        use wisedb::search::HeuristicTable;
        let workload = Workload::from_counts(&counts);
        let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
        let table = HeuristicTable::new(&spec);
        // Remaining cost after step i = total − prefix(i).
        let mut prefix = Money::ZERO;
        for step in &result.steps {
            let remaining = result.cost - prefix;
            let h = table.estimate(&goal, &step.state);
            prop_assert!(
                h.as_dollars() <= remaining.as_dollars() + 1e-9,
                "h={} > remaining={}", h, remaining
            );
            prefix += step.state.edge_weight(&spec, &goal, step.decision).unwrap();
        }
    }

    /// Adaptive re-search under tightened goals returns exactly the fresh
    /// search's optimal cost, for every goal kind.
    #[test]
    fn adaptive_equals_fresh_on_tightening((spec, goal, counts) in arb_instance(),
                                           p1 in 0.05f64..0.45, p2 in 0.5f64..0.95) {
        let workload = Workload::from_counts(&counts);
        let mut adaptive = AdaptiveSearcher::new();
        for pct in [0.0, p1, p2] {
            let tightened = goal.tighten_pct(&spec, pct);
            let reused = adaptive
                .solve(&spec, &tightened, &workload, SearchConfig::default())
                .unwrap();
            let fresh = Solver::new(&spec, &tightened).solve(&workload).unwrap();
            prop_assert!(reused.cost.approx_eq(fresh.cost, 1e-9),
                "at {}: adaptive {} vs fresh {}", pct, reused.cost, fresh.cost);
        }
    }

    /// Tightening a goal never lowers the optimal cost.
    #[test]
    fn tightening_is_monotone_in_cost((spec, goal, counts) in arb_instance(),
                                      p in 0.1f64..1.0) {
        let workload = Workload::from_counts(&counts);
        let base = Solver::new(&spec, &goal).solve(&workload).unwrap();
        let tightened_goal = goal.tighten_pct(&spec, p);
        let tightened = Solver::new(&spec, &tightened_goal).solve(&workload).unwrap();
        prop_assert!(
            tightened.cost.as_dollars() >= base.cost.as_dollars() - 1e-9,
            "tightening lowered cost: {} -> {}", base.cost, tightened.cost
        );
    }

    /// Every schedule the baselines emit is complete and places each query
    /// on a supported VM.
    #[test]
    fn baselines_always_produce_valid_schedules((spec, goal, counts) in arb_instance()) {
        let workload = Workload::from_counts(&counts);
        for h in Heuristic::ALL {
            let s = h.schedule(&spec, &goal, &workload).unwrap();
            s.validate_complete(&workload).unwrap();
            s.query_latencies(&spec).unwrap();
        }
    }
}

/// Lemma 5.1 holds only along a *tightening* sequence: reuse values
/// recorded under a stricter goal overestimate cost-to-go under a looser
/// one. `OnlineScheduler::plan_arrivals` feeds `retrain_tightened` one
/// shared set of per-signature searchers in whatever order age buckets
/// arrive, so a long wait followed by a shorter one replays exactly this:
/// `shift(240 s)` then `shift(120 s)` through one [`AdaptiveSearcher`].
/// Today 188 of these 600 reused solves cost more than a fresh solve of
/// the same goal (worst +3.3 %, typically one spare start-up fee), 108 of
/// them while still reporting `optimal`.
#[test]
#[ignore = "Shift path re-loosens goals; fix moves serve-aged cost, separate PR"]
fn adaptive_reuse_survives_a_loosening_shift_sequence() {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let base = PerformanceGoal::paper_default(GoalKind::PerQuery, &spec).unwrap();
    let strict = base.shift(Millis::from_secs(240)).unwrap();
    let loose = base.shift(Millis::from_secs(120)).unwrap();
    let mut costlier = Vec::new();
    for seed in 0..600u64 {
        let workload = wisedb::sim::uniform_workload(&spec, 9, seed);
        let mut adaptive = AdaptiveSearcher::new();
        adaptive
            .solve(&spec, &strict, &workload, SearchConfig::default())
            .unwrap();
        let reused = adaptive
            .solve(&spec, &loose, &workload, SearchConfig::default())
            .unwrap();
        let fresh = Solver::new(&spec, &loose).solve(&workload).unwrap();
        assert!(fresh.stats.optimal);
        if reused.cost.as_dollars() > fresh.cost.as_dollars() + 1e-9 {
            costlier.push((
                seed,
                reused.stats.optimal,
                reused.cost.as_dollars() / fresh.cost.as_dollars(),
            ));
        }
    }
    assert!(
        costlier.is_empty(),
        "{} of 600 reused solves cost more than a fresh one ({} of them claiming optimality, \
         worst x{:.4}); first (seed, optimal, ratio): {:?}",
        costlier.len(),
        costlier.iter().filter(|c| c.1).count(),
        costlier.iter().map(|c| c.2).fold(1.0, f64::max),
        &costlier[..costlier.len().min(4)]
    );
}
