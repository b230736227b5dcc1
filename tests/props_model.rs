//! Property-based tests on the cost model, simulator, and scheduling
//! executor invariants.

use proptest::prelude::*;

use wisedb::advisor::{attribute_costs, emd_1d, ModelConfig, ModelGenerator};
use wisedb::prelude::*;
use wisedb::sim::{self, SimOptions};
use wisedb_core::PenaltyRate;

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

fn arb_goal_kind() -> impl Strategy<Value = GoalKind> {
    prop_oneof![
        Just(GoalKind::PerQuery),
        Just(GoalKind::MaxLatency),
        Just(GoalKind::AverageLatency),
        Just(GoalKind::Percentile),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20, .. ProptestConfig::default()
    })]

    /// The simulator's default-mode bill equals Eq. 1 exactly, for any
    /// schedule the optimal searcher produces under any goal kind.
    #[test]
    fn simulator_agrees_with_analytic_cost(
        spec in arb_spec(),
        kind in arb_goal_kind(),
        counts in proptest::collection::vec(0u32..=3, 3),
        tighten in 0.0f64..0.8,
    ) {
        let counts = &counts[..spec.num_templates().min(counts.len())];
        prop_assume!(counts.iter().sum::<u32>() > 0);
        let goal = PerformanceGoal::paper_default(kind, &spec)
            .unwrap()
            .tighten_pct(&spec, tighten);
        let workload = Workload::from_counts(counts);
        let schedule = Solver::new(&spec, &goal).solve(&workload).unwrap().schedule;
        let analytic = total_cost(&spec, &goal, &schedule).unwrap();
        let trace = sim::execute(&spec, &schedule, &SimOptions::default()).unwrap();
        prop_assert!(trace.total_cost(&goal).approx_eq(analytic, 1e-9));
        // Start-up delays and wall-clock billing can only increase cost.
        let realistic = sim::execute(&spec, &schedule, &SimOptions {
            include_startup_delay: true,
            bill_wallclock: true,
            ..SimOptions::default()
        }).unwrap();
        prop_assert!(
            realistic.total_cost(&goal).as_dollars() >= analytic.as_dollars() - 1e-9
        );
    }

    /// Cost attribution is a partition of total cost: the per-template
    /// totals sum to Eq. 1 for any schedule.
    #[test]
    fn attribution_partitions_total_cost(
        spec in arb_spec(),
        kind in arb_goal_kind(),
        counts in proptest::collection::vec(0u32..=3, 3),
    ) {
        let counts = &counts[..spec.num_templates().min(counts.len())];
        prop_assume!(counts.iter().sum::<u32>() > 0);
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let workload = Workload::from_counts(counts);
        // Use a greedy baseline schedule (faster than A*, arbitrary shape).
        let schedule = Heuristic::FirstFitIncreasing
            .schedule(&spec, &goal, &workload)
            .unwrap();
        let attributed: Money =
            attribute_costs(&spec, &goal, &schedule).unwrap().into_iter().sum();
        let total = total_cost(&spec, &goal, &schedule).unwrap();
        prop_assert!(attributed.approx_eq(total, 1e-9),
            "attributed {} vs total {}", attributed, total);
    }

    /// EMD is a metric on profiles (symmetry, identity, triangle).
    #[test]
    fn emd_metric_axioms(
        a in proptest::collection::vec(0.0f64..10.0, 4),
        b in proptest::collection::vec(0.0f64..10.0, 4),
        c in proptest::collection::vec(0.0f64..10.0, 4),
    ) {
        let dab = emd_1d(&a, &b);
        let dba = emd_1d(&b, &a);
        prop_assert!((dab - dba).abs() < 1e-9);
        prop_assert!(emd_1d(&a, &a) < 1e-12);
        let dac = emd_1d(&a, &c);
        let dbc = emd_1d(&b, &c);
        prop_assert!(dac <= dab + dbc + 1e-9);
        prop_assert!(dab >= 0.0);
    }

    /// Penalty trackers agree with batch penalty computation: pushing the
    /// latencies one by one accumulates to exactly the batch penalty.
    #[test]
    fn tracker_matches_batch_penalty(
        kind in arb_goal_kind(),
        lat_secs in proptest::collection::vec(10u64..1000, 1..8),
    ) {
        let spec = WorkloadSpec::single_vm(
            vec![("T1", Millis::from_secs(100))],
            VmType::t2_medium(),
        ).unwrap();
        let goal = match kind {
            GoalKind::PerQuery => PerformanceGoal::PerQuery {
                deadlines: vec![Millis::from_secs(200)],
                rate: PenaltyRate::CENT_PER_SECOND,
            },
            GoalKind::MaxLatency => PerformanceGoal::MaxLatency {
                deadline: Millis::from_secs(200),
                rate: PenaltyRate::CENT_PER_SECOND,
            },
            GoalKind::AverageLatency => PerformanceGoal::AverageLatency {
                target: Millis::from_secs(200),
                rate: PenaltyRate::CENT_PER_SECOND,
            },
            GoalKind::Percentile => PerformanceGoal::Percentile {
                percent: 75.0,
                deadline: Millis::from_secs(200),
                rate: PenaltyRate::CENT_PER_SECOND,
            },
        };
        let _ = &spec;
        let lats: Vec<wisedb_core::QueryLatency> = lat_secs
            .iter()
            .enumerate()
            .map(|(i, &s)| wisedb_core::QueryLatency {
                query: QueryId(i as u32),
                template: TemplateId(0),
                latency: Millis::from_secs(s),
            })
            .collect();
        let batch = goal.penalty(&lats);
        let mut tracker = goal.new_tracker();
        let mut accumulated = Money::ZERO;
        for l in &lats {
            accumulated += tracker.push(&goal, l.template, l.latency);
        }
        prop_assert!(accumulated.approx_eq(batch, 1e-9),
            "deltas {} vs batch {}", accumulated, batch);
        prop_assert!(tracker.penalty(&goal).approx_eq(batch, 1e-9));
    }
}

// Learned models always emit complete schedules on random workloads —
// a slower property, checked with fewer cases.
proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, .. ProptestConfig::default()
    })]

    #[test]
    fn learned_models_always_complete(
        kind in arb_goal_kind(),
        seed in 0u64..1000,
        size in 1usize..40,
    ) {
        let spec = WorkloadSpec::single_vm(
            vec![
                ("T1", Millis::from_secs(120)),
                ("T2", Millis::from_secs(60)),
            ],
            VmType::t2_medium(),
        )
        .unwrap();
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let model = ModelGenerator::new(
            spec.clone(),
            goal,
            ModelConfig {
                num_samples: 30,
                sample_size: 5,
                seed,
                ..ModelConfig::fast()
            },
        )
        .train()
        .unwrap();
        let workload = sim::uniform_workload(&spec, size, seed);
        let schedule = model.schedule_batch(&workload).unwrap();
        schedule.validate_complete(&workload).unwrap();
    }
}
