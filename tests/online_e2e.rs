//! Online scheduling integration: stream replay invariants and the
//! effectiveness/overhead behaviour of the §6.3.1 optimizations.

use wisedb::advisor::{ArrivingQuery, ModelConfig, OnlineConfig, OnlineScheduler, Planner};
use wisedb::prelude::*;
use wisedb::sim::Arrivals;

fn spec() -> WorkloadSpec {
    wisedb::sim::catalog::tpch_like(5)
}

fn training() -> ModelConfig {
    ModelConfig {
        num_samples: 60,
        sample_size: 6,
        seed: 404,
        ..ModelConfig::fast()
    }
}

fn stream(spec: &WorkloadSpec, n: usize, arrivals: Arrivals, seed: u64) -> Vec<ArrivingQuery> {
    let workload = wisedb::sim::generator::uniform_workload(spec, n, seed);
    let times = arrivals.times(n, seed);
    workload
        .queries()
        .iter()
        .zip(times)
        .map(|(q, arrival)| ArrivingQuery::new(q.template, arrival))
        .collect()
}

/// Physical sanity of the replay: every query runs exactly once, never
/// before its arrival, and queries sharing a VM never overlap.
#[test]
fn replay_respects_physics() {
    let spec = spec();
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let mut scheduler = OnlineScheduler::train(
            spec.clone(),
            goal.clone(),
            OnlineConfig {
                training: training(),
                ..OnlineConfig::default()
            },
        )
        .unwrap();
        let stream = stream(&spec, 14, Arrivals::Poisson { mean_secs: 20.0 }, 7);
        let report = scheduler.run(&stream).unwrap();
        assert_eq!(report.outcomes.len(), stream.len(), "{kind:?}");

        for (o, a) in report.outcomes.iter().zip(&stream) {
            assert_eq!(o.template, a.template);
            assert_eq!(o.arrival, a.arrival);
            assert!(o.start >= o.arrival, "{kind:?}: started before arrival");
            assert!(o.finish > o.start);
        }
        // Per-VM serialization.
        let mut by_vm: Vec<Vec<(Millis, Millis)>> = vec![Vec::new(); report.vm_types.len()];
        for o in &report.outcomes {
            by_vm[o.vm_index].push((o.start, o.finish));
        }
        for spans in &mut by_vm {
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "{kind:?}: overlapping queries on one VM");
            }
        }
        // Execution times match the catalog.
        for o in &report.outcomes {
            let exec = spec
                .latency(o.template, report.vm_types[o.vm_index])
                .unwrap();
            assert_eq!(o.finish - o.start, exec, "{kind:?}");
        }
    }
}

/// With generous spacing, online cost approaches the sum of independent
/// single-query costs; with a burst, it approaches the batch cost. Both
/// stay within a sane factor of the batch optimal on the same queries.
#[test]
fn online_cost_is_comparable_to_batch_optimal() {
    let spec = spec();
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let stream = stream(
        &spec,
        12,
        Arrivals::Fixed {
            gap: Millis::from_millis(500),
        },
        3,
    );
    let mut scheduler = OnlineScheduler::train(
        spec.clone(),
        goal.clone(),
        OnlineConfig {
            training: training(),
            ..OnlineConfig::default()
        },
    )
    .unwrap();
    let report = scheduler.run(&stream).unwrap();
    let online_cost = report.total_cost(&spec, &goal).unwrap();

    // Batch optimal with all queries available at t = 0 is a lower-ish
    // bound (arrivals only remove options).
    let workload = Workload::from_templates(stream.iter().map(|a| a.template));
    let optimal = Solver::new(&spec, &goal).solve(&workload).unwrap();
    assert!(
        online_cost.as_dollars() <= optimal.cost.as_dollars() * 2.0 + 0.01,
        "online {online_cost} vs batch optimal {}",
        optimal.cost
    );
}

/// The optimizations preserve scheduling quality: Shift+Reuse costs about
/// the same as no optimization, while performing no more full retrains.
#[test]
fn optimizations_preserve_quality_and_cut_retraining() {
    let spec = spec();
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let stream = stream(
        &spec,
        10,
        Arrivals::Normal {
            mean_secs: 0.25,
            std_secs: 0.125,
        },
        11,
    );

    let run = |reuse: bool, shift: bool| {
        let mut scheduler = OnlineScheduler::train(
            spec.clone(),
            goal.clone(),
            OnlineConfig {
                reuse,
                shift,
                training: training(),
                ..OnlineConfig::default()
            },
        )
        .unwrap();
        let report = scheduler.run(&stream).unwrap();
        let cost = report.total_cost(&spec, &goal).unwrap();
        (report, cost)
    };

    let (r_none, c_none) = run(false, false);
    let (r_both, c_both) = run(true, true);

    assert!(
        r_both.retrains <= r_none.retrains,
        "optimizations increased retrains: {} vs {}",
        r_both.retrains,
        r_none.retrains
    );
    // Quality within 2x either way (small models, conservative shifts).
    assert!(c_both.as_dollars() <= c_none.as_dollars() * 2.0 + 0.01);
    assert!(c_none.as_dollars() <= c_both.as_dollars() * 2.0 + 0.01);
}

/// The A*-per-batch planner completes and the tree planner stays within a
/// reasonable factor of it (Figure 18's comparison).
#[test]
fn tree_planner_tracks_the_oracle() {
    let spec = spec();
    let goal = PerformanceGoal::paper_default(GoalKind::PerQuery, &spec).unwrap();
    let stream = stream(
        &spec,
        8,
        Arrivals::Fixed {
            gap: Millis::from_secs(1),
        },
        19,
    );
    let mut tree = OnlineScheduler::train(
        spec.clone(),
        goal.clone(),
        OnlineConfig {
            training: training(),
            ..OnlineConfig::default()
        },
    )
    .unwrap();
    let mut oracle = OnlineScheduler::train(
        spec.clone(),
        goal.clone(),
        OnlineConfig {
            planner: Planner::Optimal,
            training: training(),
            ..OnlineConfig::default()
        },
    )
    .unwrap();
    let c_tree = tree.run(&stream).unwrap().total_cost(&spec, &goal).unwrap();
    let c_oracle = oracle
        .run(&stream)
        .unwrap()
        .total_cost(&spec, &goal)
        .unwrap();
    assert!(
        c_tree.as_dollars() <= c_oracle.as_dollars() * 1.75 + 0.01,
        "tree {c_tree} vs oracle {c_oracle}"
    );
}
