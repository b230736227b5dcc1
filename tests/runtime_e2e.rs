//! End-to-end tests of the streaming runtime (tier-1).
//!
//! * Determinism: a fixed seed reproduces the exact event trace and
//!   metrics, across runs *and* across training thread counts.
//! * Billing: the live cluster's incrementally accrued bill plus the goal
//!   penalty equals the analytic Eq. 1 cost recomputed from the trace
//!   (property-tested over goal kinds, stream lengths, and arrival rates).
//! * Parallel training: the worker-pool path is observationally identical
//!   to the serial path.

use proptest::prelude::*;

use wisedb::advisor::{ModelConfig, ModelGenerator, OnlineConfig};
use wisedb::core::QueryLatency;
use wisedb::prelude::*;
use wisedb::runtime::generate_stream;

fn tiny_training() -> ModelConfig {
    ModelConfig {
        num_samples: 40,
        sample_size: 5,
        seed: 3,
        ..ModelConfig::fast()
    }
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        online: OnlineConfig {
            training: tiny_training(),
            ..OnlineConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

fn trained_service(kind: GoalKind, n_templates: usize) -> WorkloadService {
    let spec = wisedb::sim::catalog::tpch_like(n_templates);
    let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
    WorkloadService::train(spec, goal, runtime_config()).unwrap()
}

/// Zeroes the wall-clock (non-virtual) fields so snapshots compare
/// deterministically.
fn scrub_wall_clock(mut snapshot: MetricsSnapshot) -> MetricsSnapshot {
    snapshot.mean_decision_secs = 0.0;
    snapshot.p95_decision_secs = 0.0;
    snapshot
}

/// The search-strategy choice threads through the runtime config (the
/// training and oracle `SearchConfig`s reach training and per-arrival
/// oracle replans): a service trained with anytime search still completes
/// every arrival, deterministically, and an explicit exact strategy is
/// bit-identical to the default.
#[test]
fn runtime_honors_search_strategy_choice() {
    use wisedb::search::SearchStrategy;
    let spec = wisedb::sim::catalog::tpch_like(4);
    let goal = PerformanceGoal::paper_default(GoalKind::Percentile, &spec).unwrap();
    let run = |strategy: Option<SearchStrategy>| {
        let mut online = OnlineConfig {
            training: tiny_training(),
            ..OnlineConfig::default()
        };
        if let Some(strategy) = strategy {
            online.oracle_search.strategy = strategy;
            online.training.search.strategy = strategy;
        }
        let config = RuntimeConfig {
            online,
            ..RuntimeConfig::default()
        };
        let mut svc = WorkloadService::train(spec.clone(), goal.clone(), config).unwrap();
        let mut process = PoissonProcess::per_second(0.02, TemplateMix::uniform(4));
        svc.run_process(&mut process, 30).unwrap()
    };
    let default_run = run(None);
    let exact = run(Some(SearchStrategy::Exact));
    assert_eq!(
        default_run.completions, exact.completions,
        "explicit exact == default"
    );
    let anytime_a = run(Some(SearchStrategy::Anytime));
    let anytime_b = run(Some(SearchStrategy::Anytime));
    assert_eq!(anytime_a.completions.len(), 30, "anytime completes");
    assert_eq!(
        anytime_a.completions, anytime_b.completions,
        "anytime deterministic"
    );
}

#[test]
fn fixed_seed_reproduces_trace_and_metrics() {
    let run = || {
        let mut svc = trained_service(GoalKind::MaxLatency, 4);
        let mut process = PoissonProcess::per_second(0.02, TemplateMix::uniform(4));
        svc.run_process(&mut process, 40).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.completions, b.completions, "same event trace");
    assert_eq!(
        scrub_wall_clock(a.last.clone()),
        scrub_wall_clock(b.last.clone()),
        "same metrics"
    );
    assert_eq!(a.last.completed, 40);
}

#[test]
fn training_thread_count_does_not_change_the_run() {
    let run = |threads: usize| {
        let spec = wisedb::sim::catalog::tpch_like(4);
        let goal = PerformanceGoal::paper_default(GoalKind::PerQuery, &spec).unwrap();
        let mut config = runtime_config();
        config.online.training.threads = threads;
        let mut svc = WorkloadService::train(spec, goal, config).unwrap();
        let mut process = PoissonProcess::per_second(0.02, TemplateMix::uniform(4));
        svc.run_process(&mut process, 30).unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.completions, parallel.completions);
    assert_eq!(
        scrub_wall_clock(serial.last),
        scrub_wall_clock(parallel.last)
    );
}

#[test]
fn parallel_training_is_observationally_serial() {
    let spec = wisedb::sim::catalog::tpch_like(5);
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let serial =
            ModelGenerator::new(spec.clone(), goal.clone(), tiny_training().with_threads(1))
                .train()
                .unwrap();
        let parallel =
            ModelGenerator::new(spec.clone(), goal.clone(), tiny_training().with_threads(3))
                .train()
                .unwrap();
        assert_eq!(serial.render_tree(), parallel.render_tree(), "{kind:?}");
        assert_eq!(
            serial.stats().search_expanded,
            parallel.stats().search_expanded
        );
        for seed in [1u64, 2, 3] {
            let w = wisedb::sim::generator::uniform_workload(&spec, 12, seed);
            assert_eq!(
                serial.schedule_batch(&w).unwrap(),
                parallel.schedule_batch(&w).unwrap()
            );
        }
    }
}

#[test]
fn bursty_and_drifting_streams_run_end_to_end() {
    let n = 4;
    let mut bursty = OnOffProcess::new(0.5, 60.0, 5, TemplateMix::uniform(n));
    let report = trained_service(GoalKind::MaxLatency, n)
        .run_process(&mut bursty, 30)
        .unwrap();
    assert_eq!(report.last.completed, 30);

    let mut drift = DriftProcess::new(
        0.05,
        TemplateMix::uniform(n),
        TemplateMix::hot(n, 0, 0.9),
        Millis::from_mins(5),
    );
    let report = trained_service(GoalKind::AverageLatency, n)
        .run_process(&mut drift, 30)
        .unwrap();
    assert_eq!(report.last.completed, 30);
    assert!(report.last.billed > Money::ZERO);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, .. ProptestConfig::default()
    })]

    /// The runtime's incrementally accrued bill plus penalty equals Eq. 1
    /// recomputed from the trace: `Σ_vm (startup + runtime·busy) + p(R, S)`.
    #[test]
    fn runtime_billing_matches_analytic_eq1(
        kind_idx in 0usize..4,
        n in 12usize..28,
        mean_gap_secs in 10.0f64..120.0,
        seed in 0u64..1000,
    ) {
        let kind = GoalKind::ALL[kind_idx];
        let spec = wisedb::sim::catalog::tpch_like(3);
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let mut svc =
            WorkloadService::train(spec.clone(), goal.clone(), runtime_config()).unwrap();
        let mut process =
            PoissonProcess::with_mean_gap(mean_gap_secs, TemplateMix::uniform(3));
        let stream = generate_stream(&mut process, n, seed);
        let report = svc.run_stream(&stream).unwrap();
        prop_assert_eq!(report.completions.len(), n);

        // Rebuild Eq. 1's infrastructure terms from the trace.
        let vm_types = svc.cluster().vm_types();
        let mut busy = vec![Millis::ZERO; vm_types.len()];
        for c in &report.completions {
            busy[c.vm_index] += c.finish - c.start;
        }
        let mut analytic = Money::ZERO;
        for (v, &vm_type) in vm_types.iter().enumerate() {
            let vt = spec.vm_type(vm_type).unwrap();
            analytic += vt.startup_cost;
            analytic += vt.runtime_cost(busy[v]);
        }
        // ... and the penalty from realized SLA latencies.
        let latencies: Vec<QueryLatency> = report
            .completions
            .iter()
            .map(|c| QueryLatency {
                query: c.query,
                template: c.template,
                latency: c.finish.saturating_sub(stream[c.query.index()].arrival),
            })
            .collect();
        analytic += goal.penalty(&latencies);

        let runtime_total = report.last.total_cost();
        prop_assert!(
            runtime_total.approx_eq(analytic, 1e-9),
            "runtime {} vs analytic {}", runtime_total, analytic
        );
        prop_assert_eq!(report.last.penalty, goal.penalty(&latencies));
    }
}
