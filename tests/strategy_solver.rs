//! Differential tests for the pluggable search-strategy layer.
//!
//! The refactor extracted the monolithic A* into a `Solver` running one of
//! four strategies. Contracts pinned here:
//!
//! * **exact == refactored-exact, bit-identically** — the default-config
//!   solver and an explicit `SearchStrategy::Exact` agree with each other
//!   and with the historical goldens on cost, schedule shape, and every
//!   search counter;
//! * **inexact strategies are sound** — beam/anytime always return valid
//!   complete schedules costing at least the optimum, and whenever they
//!   report a finite suboptimality bound, `cost ≤ bound × optimal` holds;
//! * **anytime is monotone in its budget** — growing the expansion budget
//!   never worsens the incumbent (proptest);
//! * **budget outcomes are observable** — `limit_hit` is set, and the
//!   schedule is still complete;
//! * **the queue-wait-aware percentile bound dominates the old one and
//!   stays admissible** — on random reachable states the new estimate is
//!   ≥ the pre-PR-9 fastest-execution reference, and at the start vertex
//!   it never exceeds the true optimum (proptests);
//! * **PEA\* is exact** — partial expansion returns bit-identical costs to
//!   exact A* across all four goal kinds (proptest).

use proptest::prelude::*;

use wisedb::prelude::*;
use wisedb::search::{HeuristicTable, SearchState, SearchStats, SearchStrategy};
use wisedb_core::{total_cost, PenaltyRate, PenaltyTracker, PercentileDigest};

fn fig3_spec() -> WorkloadSpec {
    WorkloadSpec::single_vm(
        vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
        VmType::t2_medium(),
    )
    .unwrap()
}

fn counters(stats: &SearchStats) -> (u64, u64, u64, u64) {
    (
        stats.expanded,
        stats.generated,
        stats.reopened,
        stats.interned,
    )
}

/// The default configuration and an explicit exact strategy are the same
/// search: identical costs, schedules, and counters on the historical
/// golden instances across every goal kind.
#[test]
fn exact_strategy_is_bit_identical_to_default() {
    let catalog = wisedb::sim::catalog::tpch_like(4);
    let catalog_workload = wisedb::sim::generator::uniform_workload(&catalog, 5, 1234);
    let fig3 = fig3_spec();
    let fig3_workload = Workload::from_counts(&[1, 3]);
    for (spec, workload) in [(&catalog, &catalog_workload), (&fig3, &fig3_workload)] {
        for kind in GoalKind::ALL {
            let goal = PerformanceGoal::paper_default(kind, spec)
                .unwrap()
                .tighten_pct(spec, 0.6);
            let default_run = Solver::new(spec, &goal).solve(workload).unwrap();
            let explicit = Solver::new(spec, &goal)
                .with_strategy(SearchStrategy::Exact)
                .solve(workload)
                .unwrap();
            assert!(default_run.cost.approx_eq(explicit.cost, 0.0), "{kind:?}");
            assert_eq!(
                counters(&default_run.stats),
                counters(&explicit.stats),
                "{kind:?}"
            );
            assert_eq!(default_run.schedule, explicit.schedule, "{kind:?}");
            assert!(explicit.stats.optimal, "{kind:?}");
            assert_eq!(explicit.stats.bound, 1.0, "{kind:?}");
        }
    }
}

/// The Figure 3 golden: the exact strategy reproduces the historical cost
/// to the bit.
#[test]
fn exact_strategy_reproduces_figure_three_golden() {
    let spec = fig3_spec();
    let goal = PerformanceGoal::PerQuery {
        deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
        rate: PenaltyRate::CENT_PER_SECOND,
    };
    let workload = Workload::from_counts(&[1, 3]);
    let result = Solver::new(&spec, &goal)
        .with_strategy(SearchStrategy::Exact)
        .solve(&workload)
        .unwrap();
    let expected = Money::from_dollars(3.0 * 0.0008 + 0.052 * 5.0 / 60.0);
    assert!(result.cost.approx_eq(expected, 1e-9));
    assert_eq!(result.schedule.num_vms(), 3);
}

/// Beam and anytime never beat the optimum (they cannot — their schedules
/// are real), always return complete schedules, and respect any finite
/// bound they report: `cost ≤ bound × optimal`.
#[test]
fn inexact_strategies_bound_the_optimum() {
    let spec = wisedb::sim::catalog::tpch_like(4);
    let workload = wisedb::sim::generator::uniform_workload(&spec, 6, 99);
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec)
            .unwrap()
            .tighten_pct(&spec, 0.5);
        let exact = Solver::new(&spec, &goal).solve(&workload).unwrap();
        assert!(exact.stats.optimal, "{kind:?}");
        for strategy in [
            SearchStrategy::Beam { width: 2 },
            SearchStrategy::Beam { width: 64 },
            SearchStrategy::anytime(),
            SearchStrategy::Anytime {
                weight: 3.0,
                decay: 0.9,
            },
        ] {
            let inexact = Solver::new(&spec, &goal)
                .with_strategy(strategy)
                .solve(&workload)
                .unwrap();
            inexact.schedule.validate_complete(&workload).unwrap();
            // Never better than optimal (same cost model).
            assert!(
                inexact.cost.as_dollars() >= exact.cost.as_dollars() - 1e-9,
                "{kind:?} {strategy:?}: inexact {} < optimal {}",
                inexact.cost,
                exact.cost
            );
            // A reported bound is a real guarantee.
            let bound = inexact.stats.bound;
            assert!(bound >= 1.0, "{kind:?} {strategy:?}");
            if bound.is_finite() {
                assert!(
                    inexact.cost.as_dollars() <= bound * exact.cost.as_dollars() + 1e-9,
                    "{kind:?} {strategy:?}: cost {} exceeds bound {bound} × optimal {}",
                    inexact.cost,
                    exact.cost
                );
            }
            // The analytic cost model agrees with the reported cost.
            let analytic = total_cost(&spec, &goal, &inexact.schedule).unwrap();
            assert!(
                inexact.cost.approx_eq(analytic, 1e-9),
                "{kind:?} {strategy:?}"
            );
        }
    }
}

/// A wide, unbudgeted beam on a tiny instance never truncates, so it can
/// prove optimality and must match exact search.
#[test]
fn exhaustive_beam_matches_exact() {
    let spec = fig3_spec();
    let workload = Workload::from_counts(&[1, 2]);
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec)
            .unwrap()
            .tighten_pct(&spec, 0.5);
        let exact = Solver::new(&spec, &goal).solve(&workload).unwrap();
        let beam = Solver::new(&spec, &goal)
            .with_strategy(SearchStrategy::Beam { width: 100_000 })
            .solve(&workload)
            .unwrap();
        assert_eq!(beam.stats.pruned, 0, "{kind:?}");
        assert!(beam.stats.optimal, "{kind:?}");
        assert_eq!(beam.stats.bound, 1.0, "{kind:?}");
        assert!(
            beam.cost.approx_eq(exact.cost, 1e-9),
            "{kind:?}: beam {} vs exact {}",
            beam.cost,
            exact.cost
        );
    }
}

/// Anytime with an unbounded budget drains its open list and proves
/// optimality — for every goal kind, including the non-monotone ones.
#[test]
fn unbudgeted_anytime_proves_optimality() {
    let spec = fig3_spec();
    let workload = Workload::from_counts(&[2, 2]);
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec)
            .unwrap()
            .tighten_pct(&spec, 0.5);
        let exact = Solver::new(&spec, &goal).solve(&workload).unwrap();
        let anytime = Solver::new(&spec, &goal)
            .with_strategy(SearchStrategy::anytime())
            .solve(&workload)
            .unwrap();
        assert!(anytime.stats.optimal, "{kind:?}");
        assert_eq!(anytime.stats.bound, 1.0, "{kind:?}");
        assert!(
            anytime.cost.approx_eq(exact.cost, 1e-9),
            "{kind:?}: anytime {} vs exact {}",
            anytime.cost,
            exact.cost
        );
    }
}

/// Stopping on the expansion budget is observable (`limit_hit`) for every
/// strategy, and the fallback schedule is still complete.
#[test]
fn budget_outcomes_are_observable_and_complete() {
    let spec = wisedb::sim::catalog::tpch_like(4);
    let workload = wisedb::sim::generator::uniform_workload(&spec, 8, 7);
    let goal = PerformanceGoal::paper_default(GoalKind::Percentile, &spec).unwrap();
    for strategy in [
        SearchStrategy::Exact,
        SearchStrategy::Beam { width: 512 },
        SearchStrategy::anytime(),
    ] {
        let result = Solver::new(&spec, &goal)
            .with_config(SearchConfig {
                node_limit: 10,
                strategy,
                ..SearchConfig::default()
            })
            .solve(&workload)
            .unwrap();
        assert!(result.stats.limit_hit, "{strategy:?}");
        assert!(!result.stats.optimal, "{strategy:?}");
        assert!(result.stats.expanded <= 10, "{strategy:?}");
        result.schedule.validate_complete(&workload).unwrap();
    }
}

/// A small random spec: 2–3 templates, 30 s – 5 min latencies, one VM type.
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
    let latencies: Vec<Millis> = spec
        .templates()
        .iter()
        .map(|t| t.min_latency().unwrap())
        .collect();
    let longest = latencies.iter().copied().max().unwrap();
    let mean = latencies.iter().copied().sum::<Millis>() / latencies.len() as u64;
    prop_oneof![
        (11u64..35).prop_map(move |f| PerformanceGoal::MaxLatency {
            deadline: longest.mul_f64(f as f64 / 10.0),
            rate: PenaltyRate::CENT_PER_SECOND,
        }),
        ((11u64..35), (50.0f64..100.0)).prop_map(move |(f, p)| PerformanceGoal::Percentile {
            percent: p,
            deadline: mean.mul_f64(f as f64 / 10.0),
            rate: PenaltyRate::CENT_PER_SECOND,
        }),
    ]
}

fn arb_instance() -> impl Strategy<Value = (WorkloadSpec, PerformanceGoal, Vec<u32>)> {
    arb_spec().prop_flat_map(|spec| {
        let nt = spec.num_templates();
        let goal = arb_goal(&spec);
        let counts = proptest::collection::vec(0u32..=3, nt).prop_filter("1..=7 queries", |c| {
            let total: u32 = c.iter().sum();
            total > 0 && total <= 7
        });
        (Just(spec), goal, counts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, .. ProptestConfig::default()
    })]

    /// Growing the expansion budget never worsens anytime's incumbent: a
    /// longer run is a strict continuation of a shorter one.
    #[test]
    fn anytime_incumbent_never_worsens_with_budget((spec, goal, counts) in arb_instance()) {
        let workload = Workload::from_counts(&counts);
        let mut last: Option<f64> = None;
        for budget in [5usize, 50, 500, 1_000_000] {
            let result = Solver::new(&spec, &goal)
                .with_config(SearchConfig {
                    node_limit: budget,
                    strategy: SearchStrategy::anytime(),
                    ..SearchConfig::default()
                })
                .solve(&workload)
                .unwrap();
            result.schedule.validate_complete(&workload).unwrap();
            if let Some(prev) = last {
                prop_assert!(
                    result.cost.as_dollars() <= prev + 1e-9,
                    "budget {budget}: cost {} worsened from {prev}",
                    result.cost
                );
            }
            last = Some(result.cost.as_dollars());
        }
        // The unbudgeted run is exact.
        let exact = Solver::new(&spec, &goal).solve(&workload).unwrap();
        prop_assert!((last.unwrap() - exact.cost.as_dollars()).abs() <= 1e-9);
    }

    /// PEA* is an exact strategy: identical costs to exact A* (to the bit)
    /// and a proven 1.0 bound, for every goal kind.
    #[test]
    fn pea_star_costs_are_bit_identical_to_exact((spec, counts) in arb_workload_instance()) {
        let workload = Workload::from_counts(&counts);
        for kind in GoalKind::ALL {
            let goal = PerformanceGoal::paper_default(kind, &spec)
                .unwrap()
                .tighten_pct(&spec, 0.5);
            let exact = Solver::new(&spec, &goal)
                .with_strategy(SearchStrategy::Exact)
                .solve(&workload)
                .unwrap();
            let pea = Solver::new(&spec, &goal)
                .with_strategy(SearchStrategy::Pea)
                .solve(&workload)
                .unwrap();
            prop_assert!(pea.stats.optimal, "{kind:?}");
            prop_assert_eq!(pea.stats.bound, 1.0, "{kind:?}");
            prop_assert!(
                pea.cost.approx_eq(exact.cost, 0.0),
                "{kind:?}: pea {} != exact {}",
                pea.cost,
                exact.cost
            );
            pea.schedule.validate_complete(&workload).unwrap();
        }
    }

    /// The queue-wait-aware percentile bound dominates the old
    /// fastest-execution bound on random reachable states: tightening
    /// never lost ground anywhere in the graph.
    #[test]
    fn percentile_bound_dominates_old_reference(
        (spec, goal, counts, steps) in arb_percentile_instance()
    ) {
        let table = HeuristicTable::new(&spec);
        let state = random_walk(&spec, &goal, &counts, &steps);
        let h_new = table.estimate(&goal, &state);
        let h_old = old_percentile_estimate(&table, &spec, &goal, &state);
        prop_assert!(
            h_new.as_dollars() >= h_old.as_dollars() - 1e-12,
            "new bound {h_new} lost to old bound {h_old} at {state:?}"
        );
    }

    /// Admissibility: at the start vertex the estimate never exceeds the
    /// true optimum (`g = 0`, so `h(start) ≤ C*`). Exact A* supplies the
    /// brute-force optimum on these ≤7-query instances.
    #[test]
    fn percentile_bound_is_admissible(
        (spec, goal, counts, _steps) in arb_percentile_instance()
    ) {
        let workload = Workload::from_counts(&counts);
        let table = HeuristicTable::new(&spec);
        let start = SearchState::for_counts(&counts, &goal).unwrap();
        let h0 = table.estimate(&goal, &start);
        let exact = Solver::new(&spec, &goal).solve(&workload).unwrap();
        prop_assert!(exact.stats.optimal);
        prop_assert!(
            h0.as_dollars() <= exact.cost.as_dollars() + 1e-9,
            "h(start) {h0} exceeds optimum {}",
            exact.cost
        );
    }
}

fn arb_workload_instance() -> impl Strategy<Value = (WorkloadSpec, Vec<u32>)> {
    arb_spec().prop_flat_map(|spec| {
        let nt = spec.num_templates();
        let counts = proptest::collection::vec(0u32..=3, nt).prop_filter("1..=6 queries", |c| {
            let total: u32 = c.iter().sum();
            total > 0 && total <= 6
        });
        (Just(spec), counts)
    })
}

/// A percentile instance plus a random decision walk (indices into each
/// state's successor list) used to reach an arbitrary interior vertex.
fn arb_percentile_instance(
) -> impl Strategy<Value = (WorkloadSpec, PerformanceGoal, Vec<u32>, Vec<usize>)> {
    arb_spec().prop_flat_map(|spec| {
        let nt = spec.num_templates();
        let latencies: Vec<Millis> = spec
            .templates()
            .iter()
            .map(|t| t.min_latency().unwrap())
            .collect();
        let mean = latencies.iter().copied().sum::<Millis>() / latencies.len() as u64;
        let goal =
            ((11u64..35), (50.0f64..100.0)).prop_map(move |(f, p)| PerformanceGoal::Percentile {
                percent: p,
                deadline: mean.mul_f64(f as f64 / 10.0),
                rate: PenaltyRate::CENT_PER_SECOND,
            });
        let counts = proptest::collection::vec(0u32..=3, nt).prop_filter("1..=7 queries", |c| {
            let total: u32 = c.iter().sum();
            total > 0 && total <= 7
        });
        let steps = proptest::collection::vec(0usize..16, 0..12);
        (Just(spec), goal, counts, steps)
    })
}

/// Walks `steps` decisions from the start vertex, picking
/// `successors[step % len]` at each vertex; stops early at goal vertices.
fn random_walk(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    counts: &[u32],
    steps: &[usize],
) -> SearchState {
    let mut state = SearchState::for_counts(counts, goal).unwrap();
    for &pick in steps {
        if state.is_goal() {
            break;
        }
        let decisions = state.successors(spec);
        if decisions.is_empty() {
            break;
        }
        let decision = decisions[pick % decisions.len()];
        let (next, _) = state
            .apply(spec, goal, decision)
            .expect("successor is valid");
        state = next;
    }
    state
}

/// The pre-PR-9 percentile estimate: remaining-runtime lower bound plus a
/// penalty floor that assumes every remaining query completes at its
/// *fastest possible* execution — no queue serialization. Reimplemented
/// here as the differential reference for the dominance proptest.
fn old_percentile_estimate(
    table: &HeuristicTable,
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    state: &SearchState,
) -> Money {
    let PerformanceGoal::Percentile {
        percent,
        deadline,
        rate,
    } = goal
    else {
        unreachable!("generator only produces percentile goals")
    };
    let runtime = table.remaining_runtime_lower_bound(state);
    let current = state.tracker.penalty(goal);
    let PenaltyTracker::Percentile { dist } = &state.tracker else {
        unreachable!("percentile goals track a digest")
    };
    let mut completions: Vec<u64> = (1..=dist.len()).map(|k| dist.value_at_rank(k)).collect();
    for t in spec.template_ids() {
        let fastest = spec.templates()[t.index()]
            .min_latency()
            .expect("single-vm templates always have a latency")
            .as_millis();
        for _ in 0..state.unassigned[t.index()] {
            completions.push(fastest);
        }
    }
    completions.sort_unstable();
    if completions.is_empty() {
        return runtime;
    }
    let k = PercentileDigest::nearest_rank(*percent, completions.len() as u64);
    let at = Millis::from_millis(completions[(k - 1) as usize]);
    let floor = rate.for_violation(at.saturating_sub(*deadline));
    runtime + floor - current
}
