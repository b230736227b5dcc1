//! Online scheduling integration: stream replay invariants and the
//! effectiveness/overhead behaviour of the §6.3.1 optimizations, driven
//! through the runtime's online loop (`WorkloadService` over
//! `LiveCluster`) with the scheduler's model-work counters read back.

use wisedb::advisor::{OnlineCounters, Planner};
use wisedb::prelude::*;
use wisedb::sim::{Arrivals, Completion};
use wisedb_core::ArrivingQuery;

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
    let workload = wisedb::sim::uniform_workload(spec, n, seed);
    let times = arrivals.times(n, seed);
    workload
        .queries()
        .iter()
        .zip(times)
        .map(|(q, arrival)| ArrivingQuery::new(q.template, arrival))
        .collect()
}

/// Two templates (2 and 1 minutes) on one VM type: small enough that a
/// handful of arrivals exercises every online path.
fn small_spec() -> WorkloadSpec {
    WorkloadSpec::single_vm(
        vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
        VmType::t2_medium(),
    )
    .unwrap()
}

/// `templates`, one arrival every `gap`.
fn gapped(templates: &[u32], gap: Millis) -> Vec<ArrivingQuery> {
    templates
        .iter()
        .enumerate()
        .map(|(i, &t)| ArrivingQuery::new(TemplateId(t), gap * i as u64))
        .collect()
}

/// Trains a one-class service for `(spec, goal)` under `online` and runs
/// `stream` through it to the drained end.
fn run_online(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    online: OnlineConfig,
    stream: &[ArrivingQuery],
) -> (WorkloadService, StreamReport) {
    let config = RuntimeConfig {
        online,
        ..RuntimeConfig::default()
    };
    let mut svc = WorkloadService::train(spec.clone(), goal.clone(), config).unwrap();
    let report = svc.run_stream(stream).unwrap();
    (svc, report)
}

/// The scheduler's model work over the run.
fn work(svc: &WorkloadService) -> OnlineCounters {
    svc.scheduler(TenantId::DEFAULT).unwrap().counters()
}

/// Completions in query (= stream) order.
fn by_query(report: &StreamReport) -> Vec<Completion> {
    let mut completions = report.completions.clone();
    completions.sort_by_key(|c| c.query);
    completions
}

/// `small_spec` under the paper-default goal of `kind`.
fn small_run(
    kind: GoalKind,
    online: OnlineConfig,
    templates: &[u32],
    gap: Millis,
) -> (WorkloadService, StreamReport) {
    let spec = small_spec();
    let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
    run_online(&spec, &goal, online, &gapped(templates, gap))
}

/// The default online configuration over a tiny training budget.
fn tiny() -> OnlineConfig {
    OnlineConfig {
        training: ModelConfig {
            num_samples: 40,
            sample_size: 5,
            seed: 3,
            ..ModelConfig::fast()
        },
        ..OnlineConfig::default()
    }
}

/// Physical sanity of the replay: every query runs exactly once, never
/// before its arrival, and queries sharing a VM never overlap.
#[test]
fn replay_respects_physics() {
    let spec = spec();
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let online = OnlineConfig {
            training: training(),
            ..OnlineConfig::default()
        };
        let stream = stream(&spec, 14, Arrivals::Poisson { mean_secs: 20.0 }, 7);
        let (svc, report) = run_online(&spec, &goal, online, &stream);
        let outcomes = by_query(&report);
        assert_eq!(outcomes.len(), stream.len(), "{kind:?}");

        for (o, a) in outcomes.iter().zip(&stream) {
            assert_eq!(o.template, a.template);
            assert!(o.start >= a.arrival, "{kind:?}: started before arrival");
            assert!(o.finish > o.start);
        }
        // Per-VM serialization.
        let vm_types = svc.cluster().vm_types();
        let mut by_vm: Vec<Vec<(Millis, Millis)>> = vec![Vec::new(); vm_types.len()];
        for o in &outcomes {
            by_vm[o.vm_index].push((o.start, o.finish));
        }
        for spans in &mut by_vm {
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "{kind:?}: overlapping queries on one VM");
            }
        }
        // Execution times match the catalog.
        for o in &outcomes {
            let exec = spec.latency(o.template, vm_types[o.vm_index]).unwrap();
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
    let online = OnlineConfig {
        training: training(),
        ..OnlineConfig::default()
    };
    let (_, report) = run_online(&spec, &goal, online, &stream);
    let online_cost = report.last.total_cost();

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
        let online = OnlineConfig {
            reuse,
            shift,
            training: training(),
            ..OnlineConfig::default()
        };
        let (svc, report) = run_online(&spec, &goal, online, &stream);
        (work(&svc), report.last.total_cost())
    };

    let (w_none, c_none) = run(false, false);
    let (w_both, c_both) = run(true, true);

    assert!(
        w_both.retrains <= w_none.retrains,
        "optimizations increased retrains: {} vs {}",
        w_both.retrains,
        w_none.retrains
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
    let cost = |planner| {
        let online = OnlineConfig {
            planner,
            training: training(),
            ..OnlineConfig::default()
        };
        run_online(&spec, &goal, online, &stream)
            .1
            .last
            .total_cost()
    };
    let (c_tree, c_oracle) = (cost(Planner::Model), cost(Planner::Optimal));
    assert!(
        c_tree.as_dollars() <= c_oracle.as_dollars() * 1.75 + 0.01,
        "tree {c_tree} vs oracle {c_oracle}"
    );
}

#[test]
fn every_query_is_executed_once() {
    let (svc, report) = small_run(
        GoalKind::MaxLatency,
        tiny(),
        &[0, 1, 0, 1, 1, 0],
        Millis::from_secs(30),
    );
    let outcomes = by_query(&report);
    assert_eq!(outcomes.len(), 6);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.query, QueryId(i as u32));
        assert!(o.finish > o.start);
    }
    assert!(report.last.total_cost() > Money::ZERO);
    // One plan per arrival.
    assert_eq!(svc.stats().decisions, 6);
}

#[test]
fn slow_arrivals_reuse_few_vms() {
    // With 10-minute gaps every query finds an empty cluster: each
    // batch is a single fresh query, so no retraining is ever needed
    // and the cost approaches sequential execution.
    let (svc, report) = small_run(
        GoalKind::MaxLatency,
        tiny(),
        &[0, 0, 0],
        Millis::from_mins(10),
    );
    assert_eq!(work(&svc).retrains, 0);
    assert_eq!(work(&svc).shifts, 0);
    // Queries never overlap; each runs immediately on arrival.
    for (i, o) in by_query(&report).iter().enumerate() {
        assert_eq!(o.start, Millis::from_mins(10) * i as u64);
    }
}

#[test]
fn burst_arrivals_stack_or_spread_depending_on_goal() {
    // All queries arrive within a second; the scheduler must use the
    // open VM's wait-time to decide between stacking and new VMs.
    let (_, report) = small_run(
        GoalKind::PerQuery,
        tiny(),
        &[1, 1, 1, 1],
        Millis::from_millis(100),
    );
    // T2's deadline is 3 minutes (3x60s); stacking four 1-minute
    // queries would blow it for the last one, so at least 2 VMs.
    let vms = report.last.vms_provisioned;
    assert!(vms >= 2, "vms={vms}");
    assert!(report.last.total_cost() > Money::ZERO);
}

#[test]
fn shift_cache_kicks_in_for_shiftable_goals() {
    let (svc, _) = small_run(
        GoalKind::MaxLatency,
        OnlineConfig {
            reuse: false,
            shift: true,
            ..tiny()
        },
        &[0, 0, 0, 0, 0, 0],
        Millis::from_secs(10),
    );
    // Aged batches exist (queries wait behind each other), and the
    // shift path must have served them: zero full retrains.
    assert_eq!(work(&svc).retrains, 0);
    assert!(work(&svc).shifts > 0);
}

#[test]
fn reuse_never_trains_more_than_no_reuse() {
    // Average latency is not linearly shiftable, so aged batches go
    // through the (cached) aged-template path. With reuse on, the
    // retrain count can only drop, and the cost must stay comparable.
    let run = |reuse| {
        let online = OnlineConfig {
            reuse,
            shift: false,
            ..tiny()
        };
        let templates = [1u32; 8];
        let (svc, report) = small_run(
            GoalKind::AverageLatency,
            online,
            &templates,
            Millis::from_secs(20),
        );
        (work(&svc), report.last.total_cost())
    };
    let (with_reuse, c_reuse) = run(true);
    let (without, c_none) = run(false);
    assert!(
        with_reuse.retrains <= without.retrains,
        "reuse={} vs none={}",
        with_reuse.retrains,
        without.retrains
    );
    assert_eq!(without.cache_hits, 0);
    assert!(c_reuse.as_dollars() <= c_none.as_dollars() * 2.0 + 0.01);
}

#[test]
fn optimal_planner_completes_and_is_no_worse() {
    let templates = [0u32, 1, 1, 0];
    let gap = Millis::from_secs(45);
    let (model, model_report) = small_run(GoalKind::MaxLatency, tiny(), &templates, gap);
    let oracle_config = OnlineConfig {
        planner: Planner::Optimal,
        ..tiny()
    };
    let (oracle, oracle_report) = small_run(GoalKind::MaxLatency, oracle_config, &templates, gap);
    let c_model = model_report.last.total_cost();
    let c_oracle = oracle_report.last.total_cost();
    assert_eq!(oracle_report.last.completed, templates.len() as u64);
    // The oracle plans each batch optimally; the model should be close
    // (and can tie). Generous bound: within 50% on this toy setup.
    assert!(
        c_model.as_dollars() <= c_oracle.as_dollars() * 1.5 + 1e-6,
        "model {c_model} vs oracle {c_oracle}"
    );
    // Every replan of these small batches is proven optimal.
    assert_eq!(work(&model).oracle_limit_hits, 0);
    assert_eq!(work(&oracle).oracle_limit_hits, 0);
    // The oracle's placements leave queries waiting, so two of its
    // batches age; it plans them with A* on the aged view and trains no
    // model: the augmented-view cache holds those views and the Reuse
    // and Shift caches stay empty.
    assert_eq!(work(&oracle).retrains, 0);
    let (reuse, shift, views) = oracle.scheduler(TenantId::DEFAULT).unwrap().cache_sizes();
    assert_eq!((reuse, shift), (0, 0));
    assert!(views >= 1, "aged oracle batches cache their views");
}

#[test]
fn oracle_replans_that_hit_the_budget_are_counted() {
    // One expansion cannot reach a goal vertex when a batch must rent
    // (rent, then place): those batches fall back to the greedy plan,
    // which is still complete.
    let templates = [0u32, 1, 1, 0];
    let online = OnlineConfig {
        planner: Planner::Optimal,
        oracle_search: SearchConfig {
            node_limit: 1,
            ..SearchConfig::default()
        },
        ..tiny()
    };
    let (svc, report) = small_run(
        GoalKind::MaxLatency,
        online,
        &templates,
        Millis::from_secs(45),
    );
    assert_eq!(report.last.completed, templates.len() as u64);
    let hits = work(&svc).oracle_limit_hits;
    assert!(hits > 0);
    assert!(hits as u64 <= svc.stats().decisions);
}

#[test]
fn bounded_caches_hold_capacity_and_keep_the_reuse_win() {
    // A long stream at a *fine* age quantum: nearly every aged batch
    // has a fresh ageing signature, so an unbounded Reuse cache grows
    // with the stream (the ROADMAP leak). The LRU must pin all three
    // caches at capacity while repeated signatures still hit.
    // Average latency is not shiftable => the aged-template (Reuse)
    // path, the cache-hungry one.
    let capacity = 4;
    let online = OnlineConfig {
        age_quantum: Millis::from_millis(50),
        cache_capacity: capacity,
        shift: false,
        ..tiny()
    };
    // 40 arrivals of a 1-minute template every 2 s: deep queues, many
    // distinct wait patterns.
    let (svc, report) = small_run(
        GoalKind::AverageLatency,
        online,
        &[1; 40],
        Millis::from_secs(2),
    );
    let scheduler = svc.scheduler(TenantId::DEFAULT).unwrap();
    let (reuse, shift, augment) = scheduler.cache_sizes();
    assert!(reuse <= capacity, "reuse cache leaked: {reuse}");
    assert!(shift <= capacity, "shift cache leaked: {shift}");
    assert!(augment <= capacity, "augment cache leaked: {augment}");
    // Every aged batch on the Reuse path caches its view and its model
    // under one key, so the two caches hold the same entries.
    assert_eq!(reuse, augment);
    // The Figure 19 win survives bounding: repeated signatures hit.
    let hits = scheduler.counters().cache_hits;
    assert!(hits > 0, "bounded cache must still hit");
    assert_eq!(report.last.completed, 40, "stream completes");
}

#[test]
fn arrivals_recorded_in_outcomes() {
    let stream = gapped(&[0, 1], Millis::from_secs(30));
    let spec = small_spec();
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let (_, report) = run_online(&spec, &goal, tiny(), &stream);
    let outcomes = by_query(&report);
    for (o, a) in outcomes.iter().zip(&stream) {
        assert_eq!(o.template, a.template);
        assert!(o.start >= a.arrival);
    }
    // The service measures each latency from the stream's arrival time.
    let latencies: Vec<Millis> = outcomes
        .iter()
        .zip(&stream)
        .map(|(o, a)| o.finish - a.arrival)
        .collect();
    assert_eq!(report.last.latency, LatencySummary::of(&latencies));
}
