//! End-to-end integration: specification → training → scheduling →
//! simulated execution, across all four goal kinds.

use wisedb::advisor::{ModelConfig, ModelGenerator};
use wisedb::prelude::*;
use wisedb::sim::{self, SimOptions};

fn training() -> ModelConfig {
    ModelConfig {
        num_samples: 200,
        sample_size: 8,
        seed: 77,
        ..ModelConfig::fast()
    }
}

/// Training succeeds, batches schedule completely, analytic and simulated
/// costs agree, and the learned model stays within a sane factor of
/// optimal — for every goal kind.
#[test]
fn full_pipeline_for_every_goal_kind() {
    let spec = wisedb::sim::catalog::tpch_like(6);
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let model = ModelGenerator::new(spec.clone(), goal.clone(), training())
            .train()
            .unwrap();

        let workload = wisedb::sim::generator::uniform_workload(&spec, 16, 5);
        let schedule = model.schedule_batch(&workload).unwrap();
        schedule.validate_complete(&workload).unwrap();

        let analytic = total_cost(&spec, &goal, &schedule).unwrap();
        let trace = sim::execute(&spec, &schedule, &SimOptions::default()).unwrap();
        assert!(
            trace.total_cost(&goal).approx_eq(analytic, 1e-9),
            "{kind:?}: simulator disagrees with Eq. 1"
        );

        let optimal = Solver::new(&spec, &goal).solve(&workload).unwrap();
        assert!(
            analytic.as_dollars() <= optimal.cost.as_dollars() * 1.5 + 1e-9,
            "{kind:?}: model {analytic} vs optimal {}",
            optimal.cost
        );
        assert!(optimal.cost <= analytic + Money::from_dollars(1e-9));
    }
}

/// The model's schedules beat or match the *wrong-metric* greedy heuristic
/// on batches large enough for the differences to matter, and every
/// baseline produces complete schedules.
#[test]
fn model_vs_baselines_on_larger_batches() {
    let spec = wisedb::sim::catalog::tpch_like(6);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let model = ModelGenerator::new(spec.clone(), goal.clone(), training())
        .train()
        .unwrap();

    let workload = wisedb::sim::generator::uniform_workload(&spec, 120, 11);
    let model_schedule = model.schedule_batch(&workload).unwrap();
    model_schedule.validate_complete(&workload).unwrap();
    let model_cost = total_cost(&spec, &goal, &model_schedule).unwrap();

    for h in Heuristic::ALL {
        let s = h.schedule(&spec, &goal, &workload).unwrap();
        s.validate_complete(&workload).unwrap();
        let c = total_cost(&spec, &goal, &s).unwrap();
        // WiSeDB must be competitive with every heuristic on its own goal
        // (it cannot always beat FFD on Max, but must stay close) and the
        // comparison must at least be meaningful (finite, positive).
        assert!(c > Money::ZERO);
        assert!(
            model_cost.as_dollars() <= c.as_dollars() * 1.25,
            "model {model_cost} much worse than {} {c}",
            h.name()
        );
    }
}

/// Serialization: a model survives a JSON round-trip and schedules
/// identically afterwards.
#[test]
fn model_round_trips_through_json() {
    let spec = wisedb::sim::catalog::tpch_like(4);
    let goal = PerformanceGoal::paper_default(GoalKind::PerQuery, &spec).unwrap();
    let model = ModelGenerator::new(spec.clone(), goal, training())
        .train()
        .unwrap();
    let json = model.to_json().unwrap();
    let restored = wisedb::advisor::DecisionModel::from_json(&json).unwrap();
    let workload = wisedb::sim::generator::uniform_workload(&spec, 25, 3);
    assert_eq!(
        model.schedule_batch(&workload).unwrap(),
        restored.schedule_batch(&workload).unwrap()
    );
}

/// Multi-VM-type pipeline: with t2.medium + t2.small available, the
/// learned model provisions both types when that lowers cost, and never
/// places a query on a type that cannot run it.
#[test]
fn multi_vm_type_pipeline() {
    let spec = wisedb::sim::catalog::tpch_like_two_types(6);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let model = ModelGenerator::new(spec.clone(), goal.clone(), training())
        .train()
        .unwrap();
    let workload = wisedb::sim::generator::uniform_workload(&spec, 30, 9);
    let schedule = model.schedule_batch(&workload).unwrap();
    schedule.validate_complete(&workload).unwrap();
    // Placements are always supported (query_latencies errors otherwise).
    schedule.query_latencies(&spec).unwrap();

    // The two-type optimal is no costlier than the one-type optimal: more
    // choice can only help (Figure 12's observation).
    let optimal_2t = Solver::new(&spec, &goal).solve(&workload).unwrap();
    let spec_1t = wisedb::sim::catalog::tpch_like(6);
    let goal_1t = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec_1t).unwrap();
    let optimal_1t = Solver::new(&spec_1t, &goal_1t).solve(&workload).unwrap();
    assert!(optimal_2t.cost <= optimal_1t.cost + Money::from_dollars(1e-9));
}

/// Skewed batches still schedule completely and competitively (§7.5).
#[test]
fn skewed_batches_remain_competitive() {
    let spec = wisedb::sim::catalog::tpch_like(6);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let model = ModelGenerator::new(spec.clone(), goal.clone(), training())
        .train()
        .unwrap();
    for skew in [0.0, 0.5, 1.0] {
        let workload = wisedb::sim::generator::skewed_workload(&spec, 18, skew, 31);
        let schedule = model.schedule_batch(&workload).unwrap();
        schedule.validate_complete(&workload).unwrap();
        let cost = total_cost(&spec, &goal, &schedule).unwrap();
        let optimal = Solver::new(&spec, &goal).solve(&workload).unwrap();
        assert!(
            cost.as_dollars() <= optimal.cost.as_dollars() * 1.5 + 1e-9,
            "skew {skew}: model {cost} vs optimal {}",
            optimal.cost
        );
    }
}
