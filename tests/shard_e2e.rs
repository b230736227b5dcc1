//! Scheduler sharding, end to end (tier 1).
//!
//! Four guarantees the one engine must keep at every shard count:
//!
//! 1. **Per-arrival replay is shard-blind, for every goal kind.** A
//!    stream offered one arrival at a time places, times, bills, and
//!    accounts every query identically at 1 and 3 shards, and never
//!    takes an epoch snapshot: one-group ticks are planned inline.
//! 2. **Shard count is invisible.** Multi-class ticks plan on the calling
//!    thread at one shard and fan out to worker threads at more, but the
//!    merge applies plans in tick order, so completions and metrics are
//!    identical across any shard count.
//! 3. **Rebalancing moves classes, not outcomes.** An eager rebalancer
//!    (deterministic batch-size signal) must fire without perturbing any
//!    per-class metric row, and the rows keep partitioning the fleet
//!    totals.
//! 4. **The wire keeps all of it.** A 2-shard server replays a lockstep
//!    trace verdict-for-verdict like the in-process 1-shard service,
//!    and a tiny command-queue depth converts overflow into typed `Shed`
//!    frames — every concurrent request gets exactly one answer, never a
//!    dropped connection.

use wisedb::prelude::*;
use wisedb::runtime::{generate_class_stream, generate_stream, OfferOutcome};
use wisedb_core::ArrivingQuery;
use wisedb_runtime::{LoadSignal, ShardConfig};
use wisedb_serve::{Client, ServeConfig, Server};

fn spec() -> WorkloadSpec {
    wisedb::sim::catalog::tpch_like(4)
}

fn tiny_training() -> ModelConfig {
    ModelConfig {
        num_samples: 48,
        sample_size: 6,
        seed: 23,
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

/// One sparse Poisson sub-stream per class, merged by arrival time —
/// class-disjoint traffic that exercises multi-group ticks.
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

/// Zeroes the only machine-dependent snapshot fields — scheduler
/// wall-clock overhead — so two runs of identical *decisions* compare
/// equal.
fn scrub(mut snapshot: MetricsSnapshot) -> MetricsSnapshot {
    snapshot.mean_decision_secs = 0.0;
    snapshot.p95_decision_secs = 0.0;
    snapshot
}

/// Guarantee 1: for every goal kind — including the percentile goal,
/// whose model is the heaviest — per-arrival replay of the same
/// fixed-seed trace is bit-identical at 1 and 3 shards, and neither pays
/// a fan-out epoch doing it.
#[test]
fn one_shard_replay_is_bit_identical_to_unsharded_for_every_goal_kind() {
    let spec = spec();
    let mut process = PoissonProcess::per_second(0.02, TemplateMix::uniform(spec.num_templates()));
    let stream = generate_stream(&mut process, 14, 0x5EA2D);

    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let run = |shards: usize| {
            let mut svc = WorkloadService::train(spec.clone(), goal.clone(), config())
                .unwrap()
                .into_sharded(ShardConfig::with_shards(shards));
            let report = svc.run_stream(&stream).unwrap();
            (report, svc.stats())
        };
        let (one, one_stats) = run(1);
        let (three, three_stats) = run(3);

        assert_eq!(
            three.completions,
            one.completions,
            "{}: 3 shards changed a placement or finish time",
            kind.name()
        );
        assert_eq!(
            scrub(three.last),
            scrub(one.last),
            "{}: 3 shards changed the metrics",
            kind.name()
        );
        // One-group ticks are planned inline against the live cluster:
        // no snapshot epoch, no worker round trip.
        for stats in [one_stats, three_stats] {
            assert_eq!(stats.epochs, 0, "{}", kind.name());
            assert_eq!(stats.decisions, 14, "{}", kind.name());
            assert_eq!(stats.decisions, stats.merged_plans, "{}", kind.name());
        }
    }
}

/// Guarantee 2: the same class-disjoint traffic replayed through 1, 2,
/// and 3 shards — with multi-group ticks forcing the epoch-snapshot
/// pipeline — produces identical completions and identical per-class
/// metric rows. The merge order, not the shard layout, decides outputs.
#[test]
fn ticked_replay_is_deterministic_across_shard_counts() {
    let spec = spec();
    let stream = tagged_stream(&spec, 10);
    let run = |shards: usize| {
        let mut svc = WorkloadService::train_classes(spec.clone(), three_classes(&spec), config())
            .unwrap()
            .into_sharded(ShardConfig::with_shards(shards));
        let report = svc.run_ticked(&stream, 4).unwrap();
        (report, svc.stats())
    };
    let (base, base_stats) = run(1);
    assert_eq!(base.last.completed, 30);
    assert!(base_stats.epochs > 0, "multi-group ticks must snapshot");
    for shards in [2, 3] {
        let (report, stats) = run(shards);
        assert_eq!(
            report.completions, base.completions,
            "{shards} shards changed the schedule"
        );
        assert_eq!(
            scrub(report.last.clone()),
            scrub(base.last.clone()),
            "{shards} shards changed the metrics"
        );
        assert_eq!(report.last.classes, base.last.classes);
        // Same plans, same work — only the lanes differ.
        assert_eq!(stats.decisions, base_stats.decisions);
        assert_eq!(stats.merged_plans, base_stats.merged_plans);
        assert_eq!(stats.epochs, base_stats.epochs);
    }
}

/// Guarantee 3: an eager rebalancer (deterministic batch-size load
/// signal, hair-trigger skew threshold) actually fires — and every
/// per-class metric row is still identical to the run with rebalancing
/// disabled, with the rows partitioning the fleet totals.
#[test]
fn rebalancing_preserves_per_class_metric_sums() {
    let spec = spec();
    let stream = tagged_stream(&spec, 10);
    let run = |rebalance_every: u64| {
        let mut svc = WorkloadService::train_classes(spec.clone(), three_classes(&spec), config())
            .unwrap()
            .into_sharded(ShardConfig {
                shards: 2,
                rebalance_every,
                skew_threshold: 1.01,
                signal: LoadSignal::BatchSize,
            });
        let report = svc.run_ticked(&stream, 4).unwrap();
        (report, svc.stats())
    };
    let (pinned, pinned_stats) = run(0);
    let (moved, moved_stats) = run(2);
    assert_eq!(pinned_stats.rebalances, 0);
    assert!(
        moved_stats.rebalances > 0,
        "the eager configuration must actually move a class"
    );

    assert_eq!(moved.completions, pinned.completions);
    assert_eq!(scrub(moved.last.clone()), scrub(pinned.last.clone()));
    assert_eq!(moved.last.classes, pinned.last.classes);

    // The rows still partition the fleet totals after classes moved.
    let last = &moved.last;
    assert_eq!(last.classes.len(), 3);
    let sum = |f: &dyn Fn(&ClassMetrics) -> u64| last.classes.iter().map(|c| f(c)).sum::<u64>();
    assert_eq!(sum(&|c| c.completed), last.completed);
    assert_eq!(sum(&|c| c.admitted), last.admitted);
    assert_eq!(sum(&|c| c.sla_violations), last.sla_violations);
    assert_eq!(sum(&|c| c.latency.count), last.latency.count);
    let billed: Money = last.classes.iter().map(|c| c.billed).sum();
    assert!(billed.approx_eq(last.billed, 1e-9));
    let penalty: Money = last.classes.iter().map(|c| c.penalty).sum();
    assert!(penalty.approx_eq(last.penalty, 1e-9));
}

/// Guarantee 4a: a 2-shard server replays a lockstep trace with the
/// same verdict per arrival and the same final metrics as the in-process
/// 1-shard service — each lockstep offer is a one-group tick, planned
/// inline on both sides of the wire.
#[test]
fn sharded_server_matches_in_process_unsharded_replay() {
    let spec = spec();
    let stream = tagged_stream(&spec, 8);

    let mut local =
        WorkloadService::train_classes(spec.clone(), three_classes(&spec), config()).unwrap();
    let mut local_outcomes = Vec::with_capacity(stream.len());
    for q in &stream {
        let admitted = local.offer_as(q.template, q.class, q.arrival).unwrap();
        local_outcomes.push(if admitted {
            OfferOutcome::Admitted
        } else {
            OfferOutcome::Shed
        });
    }

    let served =
        WorkloadService::train_classes(spec.clone(), three_classes(&spec), config()).unwrap();
    let handle = Server::spawn(
        served,
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let wire_outcomes: Vec<OfferOutcome> = stream
        .iter()
        .map(|q| client.offer(q.class, q.template, q.arrival).unwrap())
        .collect();
    let snapshot = client.metrics().unwrap();
    client.shutdown().unwrap();
    let served = handle.join().expect("the scheduler hands the service back");

    assert_eq!(wire_outcomes, local_outcomes);
    assert_eq!(served.completions(), local.completions());
    assert_eq!(scrub(snapshot), scrub(local.snapshot()));
}

/// Guarantee 4b: with the command queue bounded to a single slot, a
/// concurrent burst from several connections still gets exactly one
/// answer per request — `Admitted` or a typed `Shed`, never a hang or a
/// dropped connection — and the server keeps serving afterwards. The
/// conservation law (server totals == client totals) holds through the
/// overflow path.
#[test]
fn tiny_queue_depth_sheds_overflow_without_dropping_requests() {
    let spec = spec();
    let service =
        WorkloadService::train_classes(spec.clone(), three_classes(&spec), config()).unwrap();
    let handle = Server::spawn(
        service,
        ServeConfig {
            shards: 2,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    const CLIENTS: usize = 4;
    const PER_CLIENT: u64 = 12;
    let per_client: Vec<(u64, u64)> = std::thread::scope(|scope| {
        (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let (mut admitted, mut shed) = (0u64, 0u64);
                    for i in 0..PER_CLIENT {
                        // Monotone per-connection virtual times; the live
                        // cluster clamps cross-client staleness.
                        let at = Millis::from_secs(10 + i * 60);
                        match client
                            .offer(TenantId(c as u32 % 3), TemplateId(0), at)
                            .unwrap()
                        {
                            OfferOutcome::Admitted => admitted += 1,
                            OfferOutcome::Shed => shed += 1,
                        }
                    }
                    (admitted, shed)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });

    let answered: u64 = per_client.iter().map(|(a, s)| a + s).sum();
    assert_eq!(
        answered,
        (CLIENTS as u64) * PER_CLIENT,
        "every request must get exactly one verdict"
    );

    // The server is still healthy: a fresh connection gets a snapshot
    // whose totals match what the clients saw (queue sheds answer the
    // client without reaching the scheduler's admission books, so the
    // snapshot's admitted count can only be bounded by the client sum).
    let mut control = Client::connect(addr).unwrap();
    let snapshot = control.metrics().unwrap();
    let admitted: u64 = per_client.iter().map(|(a, _)| a).sum();
    assert_eq!(snapshot.admitted, admitted);
    control.shutdown().unwrap();
    handle.join();
}
