//! Multi-class ticks and the serve path around them, end to end (tier 1).
//!
//! Three guarantees the one engine must keep:
//!
//! 1. **Per-class rows partition the fleet.** Under multi-group ticks
//!    (admit → one epoch view → plan and merge in tick order) the
//!    per-class metric rows sum to the fleet totals.
//! 2. **The wire keeps the verdicts.** A server replays a lockstep trace
//!    verdict-for-verdict like the in-process service.
//! 3. **Overflow is shed, not dropped.** A tiny command-queue depth or
//!    an admission cap converts overflow into typed `Shed` frames — every
//!    concurrent request gets exactly one answer, never a dropped
//!    connection, and the server's totals equal the clients'.

use wisedb::prelude::*;
use wisedb::runtime::{generate_class_stream, OfferOutcome};
use wisedb_core::ArrivingQuery;
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

/// Guarantee 1: class-disjoint traffic replayed in ticks of four, so
/// most ticks carry several classes, keeps every per-class row summing
/// to the fleet totals.
#[test]
fn multi_group_ticks_preserve_per_class_metric_sums() {
    let spec = spec();
    let stream = tagged_stream(&spec, 10);
    let mut svc =
        WorkloadService::train_classes(spec.clone(), three_classes(&spec), config()).unwrap();
    let report = svc.run_ticked(&stream, 4).unwrap();
    assert!(svc.stats().epochs > 0, "multi-group ticks take epoch views");

    let last = &report.last;
    assert_eq!(last.completed, 30);
    assert_eq!(last.classes.len(), 3);
    let sum = |f: &dyn Fn(&ClassMetrics) -> u64| last.classes.iter().map(f).sum::<u64>();
    assert_eq!(sum(&|c| c.completed), last.completed);
    assert_eq!(sum(&|c| c.admitted), last.admitted);
    assert_eq!(sum(&|c| c.sla_violations), last.sla_violations);
    assert_eq!(sum(&|c| c.latency.count), last.latency.count);
    let billed: Money = last.classes.iter().map(|c| c.billed).sum();
    assert!(billed.approx_eq(last.billed, 1e-9));
    let penalty: Money = last.classes.iter().map(|c| c.penalty).sum();
    assert!(penalty.approx_eq(last.penalty, 1e-9));
}

/// Guarantee 2: a server replays a lockstep trace with the same verdict
/// per arrival and the same final metrics as the in-process service —
/// each lockstep offer is a one-group tick, planned inline on both sides
/// of the wire.
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
    let handle = Server::spawn(served, ServeConfig::default()).unwrap();
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

/// Guarantee 3: a concurrent burst from several connections gets exactly
/// one answer per request — `Admitted` or a typed `Shed`, never a hang or
/// a dropped connection — and the server keeps serving afterwards. Two
/// inputs: a command queue bounded to a single slot, whose overflow sheds
/// before the scheduler sees it, and the default queue depth under an
/// admission cap, where every shed is the scheduler's. The conservation
/// law (server totals == client totals) holds on both paths.
#[test]
fn tiny_queue_depth_sheds_overflow_without_dropping_requests() {
    let spec = spec();
    let inputs = [
        (1, AdmissionPolicy::AcceptAll),
        (
            ServeConfig::default().queue_depth,
            AdmissionPolicy::MaxInFlight(6),
        ),
    ];
    for (queue_depth, admission) in inputs {
        let config = RuntimeConfig {
            admission,
            ..config()
        };
        let service =
            WorkloadService::train_classes(spec.clone(), three_classes(&spec), config).unwrap();
        let handle = Server::spawn(
            service,
            ServeConfig {
                queue_depth,
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
                            // Monotone per-connection virtual times; the
                            // live cluster clamps cross-client staleness.
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
            "queue depth {queue_depth}: every request must get exactly one verdict"
        );

        // The server is still healthy: a fresh connection gets a snapshot
        // whose totals match what the clients saw. Queue sheds answer the
        // client without reaching the scheduler's admission books, so
        // `rejected` matches the clients' sheds only when the queue never
        // overflows.
        let mut control = Client::connect(addr).unwrap();
        let snapshot = control.metrics().unwrap();
        let admitted: u64 = per_client.iter().map(|(a, _)| a).sum();
        assert_eq!(snapshot.admitted, admitted, "queue depth {queue_depth}");
        if queue_depth > 1 {
            let shed: u64 = per_client.iter().map(|(_, s)| s).sum();
            assert!(shed > 0, "the admission cap must shed part of the burst");
            assert_eq!(snapshot.rejected, shed, "queue depth {queue_depth}");
        }
        control.shutdown().unwrap();
        handle.join();
    }
}
