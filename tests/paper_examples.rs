//! The paper's worked examples, encoded as executable assertions.

use wisedb::prelude::*;
use wisedb::search::{Decision, SearchState};
use wisedb_core::PenaltyRate;

/// Figure 3's setup: T1 = 2 minutes (deadline 3m), T2 = 1 minute
/// (deadline 1m), single t2.medium type.
fn fig3() -> (WorkloadSpec, PerformanceGoal) {
    let spec = WorkloadSpec::single_vm(
        vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
        VmType::t2_medium(),
    )
    .unwrap();
    let goal = PerformanceGoal::PerQuery {
        deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
        rate: PenaltyRate::CENT_PER_SECOND,
    };
    (spec, goal)
}

/// Figure 3: scenario 1 (three VMs, no violations) beats scenario 2 (two
/// VMs, 3 minutes of violations), and the optimal scheduler finds a
/// three-VM, zero-penalty schedule.
#[test]
fn figure_three_optimal_uses_three_vms() {
    let (spec, goal) = fig3();
    let workload = Workload::from_counts(&[1, 3]);
    let best = Solver::new(&spec, &goal).solve(&workload).unwrap();
    assert!(best.stats.optimal);
    assert_eq!(best.schedule.num_vms(), 3);
    let breakdown = cost_breakdown(&spec, &goal, &best.schedule).unwrap();
    assert_eq!(breakdown.penalty, Money::ZERO);
}

/// §3's complexity discussion: for T1/T2/T3 of 4/3/2 minutes with a
/// 9-minute max-latency bound and two instances each, FFD and FFI both
/// need three VMs while the optimal interleaving S' needs two.
#[test]
fn section_three_ffd_ffi_and_the_better_strategy() {
    let spec = WorkloadSpec::single_vm(
        vec![
            ("T1", Millis::from_mins(4)),
            ("T2", Millis::from_mins(3)),
            ("T3", Millis::from_mins(2)),
        ],
        VmType::t2_medium(),
    )
    .unwrap();
    let goal = PerformanceGoal::MaxLatency {
        deadline: Millis::from_mins(9),
        rate: PenaltyRate::CENT_PER_SECOND,
    };
    let workload = Workload::from_counts(&[2, 2, 2]);

    let ffd = Heuristic::FirstFitDecreasing
        .schedule(&spec, &goal, &workload)
        .unwrap();
    let ffi = Heuristic::FirstFitIncreasing
        .schedule(&spec, &goal, &workload)
        .unwrap();
    let optimal = Solver::new(&spec, &goal).solve(&workload).unwrap();

    assert_eq!(ffd.num_vms(), 3, "SFFD = {{[q1,q2],[q3,q4,q5],[q6]}}");
    assert_eq!(ffi.num_vms(), 3, "SFFI = {{[q5,q6,q3],[q4,q1],[q2]}}");
    assert_eq!(
        optimal.schedule.num_vms(),
        2,
        "S' = {{[T1,T2,T3],[T1,T2,T3]}}"
    );

    let c_ffd = total_cost(&spec, &goal, &ffd).unwrap();
    let c_ffi = total_cost(&spec, &goal, &ffi).unwrap();
    assert!(optimal.cost < c_ffd);
    assert!(optimal.cost < c_ffi);
}

/// §4.5's walk-through: with T1 (2m latency, 3m deadline) and T2 (1m
/// latency, 1m deadline), the learned strategy behaves like first-fit
/// increasing — place a T2, then a T1, then open a new VM — producing
/// {[T2, T1], [T2, T1], ...} style schedules. We assert the *outcome*:
/// the model's schedule for {q1(T1), q2(T2), q3(T2)} uses 2 VMs and pairs
/// one T2 with the T1.
#[test]
fn section_four_five_walkthrough_schedule_shape() {
    let (spec, goal) = fig3();
    // Train a model on this spec (small but more than the walkthrough).
    let model = ModelGenerator::new(
        spec.clone(),
        goal.clone(),
        wisedb::advisor::ModelConfig {
            num_samples: 200,
            sample_size: 6,
            seed: 42,
            ..wisedb::advisor::ModelConfig::fast()
        },
    )
    .train()
    .unwrap();

    let workload = Workload::from_templates([TemplateId(0), TemplateId(1), TemplateId(1)]);
    let schedule = model.schedule_batch(&workload).unwrap();
    schedule.validate_complete(&workload).unwrap();

    // The optimal schedule costs 2 startups + 4 query-minutes (T2 first,
    // then T1 on one VM; the other T2 alone). The learned model must match
    // that cost exactly here — the paper walks through precisely this case.
    let optimal = Solver::new(&spec, &goal).solve(&workload).unwrap();
    let model_cost = total_cost(&spec, &goal, &schedule).unwrap();
    assert!(
        model_cost.approx_eq(optimal.cost, 1e-6),
        "model {model_cost} vs optimal {optimal_cost}",
        optimal_cost = optimal.cost
    );
    assert_eq!(schedule.num_vms(), 2);
    // No VM may run two T2s (the second would violate its 1m deadline).
    for vm in &schedule.vms {
        let t2s = vm
            .queue
            .iter()
            .filter(|p| p.template == TemplateId(1))
            .count();
        assert!(t2s <= 1);
    }
}

/// Lemma 4.1 (graph reduction preserves goal vertices): every complete
/// schedule with no empty VMs is reachable in the reduced graph. We verify
/// the construction on a concrete case: the reduced successor relation can
/// reproduce an arbitrary no-empty-VM schedule's decision sequence.
#[test]
fn lemma_four_one_reduced_graph_reaches_compact_schedules() {
    let (spec, goal) = fig3();
    // Target schedule: vm1 = [T2, T1], vm2 = [T2] — built VM by VM, which
    // is exactly the decision order the reduced graph permits.
    let decisions = [
        Decision::CreateVm(VmTypeId(0)),
        Decision::Place(TemplateId(1)),
        Decision::Place(TemplateId(0)),
        Decision::CreateVm(VmTypeId(0)),
        Decision::Place(TemplateId(1)),
    ];
    let mut state = SearchState::initial(vec![1, 2], &goal);
    for d in decisions {
        assert!(state.is_valid(&spec, d), "reduced graph rejected {d}");
        let (next, _) = state.apply(&spec, &goal, d).unwrap();
        state = next;
    }
    assert!(state.is_goal());
}

/// Figure 2/§2: queries with identical latency are the same template to
/// WiSeDB; an unknown query is matched to the nearest-latency template.
#[test]
fn unseen_queries_match_nearest_template() {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let model = ModelGenerator::new(
        spec.clone(),
        goal,
        wisedb::advisor::ModelConfig {
            num_samples: 50,
            sample_size: 6,
            seed: 1,
            ..wisedb::advisor::ModelConfig::fast()
        },
    )
    .train()
    .unwrap();
    // T1 is 120s, T2 ≈ 146.7s; 130s sits nearer T1.
    assert_eq!(
        model.nearest_template(Millis::from_secs(130)),
        TemplateId(0)
    );
    // Far beyond every template: clamps to the slowest (T10, 360s).
    assert_eq!(
        model.nearest_template(Millis::from_secs(4000)),
        TemplateId(9)
    );
}
