//! Multi-tenant invariants, end to end (tier 1).
//!
//! Three guarantees the SLA-class refactor must keep:
//!
//! 1. **Single-class == legacy single-goal, bit-identically.** A
//!    one-class service must place, time, bill, and account every query
//!    exactly like the pre-refactor single-goal pipeline — represented
//!    here by `OnlineScheduler::run`, the §6.3 batch replayer that the
//!    original service was differentially tested against.
//! 2. **Per-class accounting partitions the fleet totals.** Completions,
//!    violations, penalties, dollars, and latency populations reported
//!    per class must sum (or merge) to the fleet-wide numbers.
//! 3. **Determinism.** The multi-class event loop replays bit-for-bit
//!    under a fixed seed, including across `ModelConfig::threads`
//!    settings (per-class training merges per-sample results in index
//!    order).

use wisedb::prelude::*;
use wisedb::runtime::generate_class_stream;
use wisedb_core::ArrivingQuery;

fn spec() -> WorkloadSpec {
    wisedb::sim::catalog::tpch_like(4)
}

fn tiny_training() -> ModelConfig {
    ModelConfig {
        num_samples: 60,
        sample_size: 6,
        seed: 11,
        ..ModelConfig::fast()
    }
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        online: OnlineConfig {
            training: tiny_training(),
            age_quantum: Millis::from_secs(30),
            ..OnlineConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

fn three_classes(spec: &WorkloadSpec) -> Vec<SlaClass> {
    vec![
        SlaClass::new(
            "gold",
            PerformanceGoal::paper_default(GoalKind::PerQuery, spec).unwrap(),
        )
        .with_priority(2),
        SlaClass::new(
            "silver",
            PerformanceGoal::paper_default(GoalKind::MaxLatency, spec).unwrap(),
        )
        .with_priority(1),
        SlaClass::new(
            "bronze",
            PerformanceGoal::paper_default(GoalKind::AverageLatency, spec).unwrap(),
        ),
    ]
}

fn tagged_stream(spec: &WorkloadSpec, n_per_class: usize) -> Vec<ArrivingQuery> {
    let mix = TemplateMix::uniform(spec.num_templates());
    let streams = (0..3u32)
        .map(|c| {
            let mut process =
                PoissonProcess::per_second(1.0 / (200.0 + 50.0 * c as f64), mix.clone());
            generate_class_stream(&mut process, n_per_class, 31 + c as u64, TenantId(c))
        })
        .collect();
    merge_streams(streams)
}

/// Invariant 1: a single-class service reproduces the legacy single-goal
/// pipeline bit-identically, for every goal kind — same placements, same
/// virtual times, same total cost — and its one metrics row mirrors the
/// fleet-wide numbers.
#[test]
fn single_class_service_is_bit_identical_to_the_legacy_pipeline() {
    let spec = spec();
    let mut process = PoissonProcess::per_second(0.005, TemplateMix::uniform(spec.num_templates()));
    let stream = wisedb::runtime::generate_stream(&mut process, 20, 77);
    for kind in [
        GoalKind::PerQuery,
        GoalKind::MaxLatency,
        GoalKind::AverageLatency,
    ] {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();

        // The multi-tenant code path, configured with exactly one class.
        let mut svc = WorkloadService::train_classes(
            spec.clone(),
            vec![SlaClass::solo(goal.clone())],
            config(),
        )
        .unwrap();
        let report = svc.run_stream(&stream).unwrap();

        // The legacy §6.3 batch replayer (untouched single-goal code).
        let mut replayer =
            OnlineScheduler::train(spec.clone(), goal.clone(), config().online).unwrap();
        let batch = replayer.run(&stream).unwrap();

        let mut by_query = report.completions.clone();
        by_query.sort_by_key(|c| c.query);
        assert_eq!(by_query.len(), batch.outcomes.len(), "{kind:?}");
        for (c, o) in by_query.iter().zip(&batch.outcomes) {
            assert_eq!(c.query, o.query, "{kind:?}");
            assert_eq!(c.template, o.template, "{kind:?}");
            assert_eq!(c.vm_index, o.vm_index, "{kind:?}");
            assert_eq!(c.start, o.start, "{kind:?}");
            assert_eq!(c.finish, o.finish, "{kind:?}");
            assert_eq!(c.class, TenantId::DEFAULT, "{kind:?}");
        }
        let total = report.last.total_cost();
        let batch_total = batch.total_cost(&spec, &goal).unwrap();
        assert!(
            total.approx_eq(batch_total, 1e-9),
            "{kind:?}: service {total} vs replayer {batch_total}"
        );

        // The single class row IS the fleet view.
        assert_eq!(report.last.classes.len(), 1);
        let row = &report.last.classes[0];
        assert_eq!(row.completed, report.last.completed);
        assert_eq!(row.admitted, report.last.admitted);
        assert_eq!(row.sla_violations, report.last.sla_violations);
        assert_eq!(row.latency, report.last.latency);
        assert_eq!(row.queueing, report.last.queueing);
        assert!(row.billed.approx_eq(report.last.billed, 1e-9));
        assert!(row.penalty.approx_eq(report.last.penalty, 1e-9));
    }
}

/// Invariant 2: per-class accounting sums to the fleet-wide totals — for
/// counts, violations, penalties, dollars, and the latency population.
#[test]
fn per_class_accounting_partitions_the_fleet_totals() {
    let spec = spec();
    let mut svc =
        WorkloadService::train_classes(spec.clone(), three_classes(&spec), config()).unwrap();
    let report = svc.run_stream(&tagged_stream(&spec, 12)).unwrap();
    let last = &report.last;
    assert_eq!(last.classes.len(), 3);

    let sum = |f: &dyn Fn(&ClassMetrics) -> u64| last.classes.iter().map(f).sum::<u64>();
    assert_eq!(sum(&|c| c.completed), last.completed);
    assert_eq!(sum(&|c| c.admitted), last.admitted);
    assert_eq!(sum(&|c| c.rejected), last.rejected);
    assert_eq!(sum(&|c| c.sla_violations), last.sla_violations);
    assert_eq!(sum(&|c| c.latency.count), last.latency.count);

    let penalty: Money = last.classes.iter().map(|c| c.penalty).sum();
    assert!(penalty.approx_eq(last.penalty, 1e-9), "penalties partition");
    let billed: Money = last.classes.iter().map(|c| c.billed).sum();
    assert!(billed.approx_eq(last.billed, 1e-9), "dollars partition");

    // The fleet latency population is the merge of the class populations:
    // the fleet max is the max of class maxes, and every class percentile
    // is bounded by its population's extremes.
    let fleet_max = last.classes.iter().map(|c| c.latency.max).max().unwrap();
    assert_eq!(fleet_max, last.latency.max);

    // Violation *rates* are per-class quantities judged under per-class
    // goals: bronze (average-latency proxy bound) and gold (per-query
    // deadlines) genuinely differ in what counts as a violation.
    for row in &last.classes {
        let expected = if row.completed == 0 {
            0.0
        } else {
            row.sla_violations as f64 / row.completed as f64
        };
        assert!((row.violation_rate - expected).abs() < 1e-12);
    }

    // Completion tags partition the completion list itself.
    for (i, _) in last.classes.iter().enumerate() {
        let tagged = report
            .completions
            .iter()
            .filter(|c| c.class == TenantId(i as u32))
            .count() as u64;
        assert_eq!(tagged, last.classes[i].completed);
    }
}

/// Invariant 3: the multi-class event loop is deterministic under a fixed
/// seed, and `ModelConfig::threads` (parallel per-sample training solves)
/// does not perturb it — the index-ordered merge keeps per-class models
/// bit-identical, so the whole service replays identically.
#[test]
fn multi_class_loop_is_deterministic_across_thread_counts() {
    let spec = spec();
    let stream = tagged_stream(&spec, 10);
    let run = |threads: usize| {
        let mut cfg = config();
        cfg.online.training.threads = threads;
        let mut svc =
            WorkloadService::train_classes(spec.clone(), three_classes(&spec), cfg).unwrap();
        svc.run_stream(&stream).unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    let auto = run(0);
    assert_eq!(serial.completions, parallel.completions);
    assert_eq!(serial.completions, auto.completions);
    assert_eq!(serial.last.latency, parallel.last.latency);
    assert_eq!(serial.last.billed, parallel.last.billed);
    assert_eq!(serial.last.penalty, parallel.last.penalty);
    assert_eq!(serial.last.classes, parallel.last.classes);
    // And re-running the same configuration replays bit-for-bit.
    let again = run(1);
    assert_eq!(serial.completions, again.completions);
    assert_eq!(serial.last.classes, again.last.classes);
}

/// The acceptance scenario: a 3-class stream on one shared fleet, with
/// per-class SLA metrics present and populated in every snapshot.
#[test]
fn three_class_stream_reports_per_class_sla_metrics() {
    let spec = spec();
    let mut cfg = config();
    cfg.snapshot_every = 10;
    let mut svc = WorkloadService::train_classes(spec.clone(), three_classes(&spec), cfg).unwrap();
    let report = svc.run_stream(&tagged_stream(&spec, 10)).unwrap();
    assert!(!report.snapshots.is_empty());
    for snap in report.snapshots.iter().chain([&report.last]) {
        assert_eq!(snap.classes.len(), 3);
        assert_eq!(snap.classes[0].name, "gold");
        assert_eq!(snap.classes[2].name, "bronze");
        assert_eq!(snap.classes[0].priority, 2);
    }
    let last = &report.last;
    assert_eq!(last.completed, 30);
    for row in &last.classes {
        assert_eq!(row.completed, 10, "{}", row.name);
        assert!(row.latency.p95 >= row.latency.p50, "{}", row.name);
        assert!(row.latency.p50 > Millis::ZERO, "{}", row.name);
    }
    // Shared fleet: all three classes' work ran somewhere, and the class
    // cost attribution covers the whole bill.
    assert!(last.vms_provisioned >= 1);
    let attributed: Money = last.classes.iter().map(|c| c.billed).sum();
    assert!(attributed.approx_eq(last.billed, 1e-9));
}
