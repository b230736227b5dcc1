//! The serve-layer load scenario: replay an arrival trace over the wire
//! and measure decision latency at the client.
//!
//! One loopback [`Server`] fronts a freshly trained single-class service;
//! one [`Client`] connection replays a seeded Poisson trace *sequentially*
//! (offer, await verdict, next), timing each round trip wall-clock. The
//! sequential replay keeps every admission decision deterministic — same
//! trace, same virtual times, same shed set — so `admitted`/`shed` are
//! exact regress **counters**. The round-trip percentiles are
//! machine-dependent and only reported; `benchmark/`'s `serve-steady`
//! workload is what validates the offer latency target.
//!
//! The trace runs hot (Poisson at 2 q/s against 2–6-minute queries) with
//! a `MaxInFlight` admission cap sized at 60% of the trace, so a fixed
//! tail of it is shed — exercising the graceful-degradation path (`Shed`
//! frames, never dropped connections) under measurement.
//!
//! Used by `--bin loadgen` (the report + conservation asserts) and
//! `--bin regress` (the `serve/*` counters).

use std::time::Instant;

use wisedb::prelude::*;
use wisedb_core::{ArrivingQuery, LatencyHistogram};
use wisedb_serve::{Client, ServeConfig, Server};

use crate::Scale;

/// Requests per scale.
pub fn requests(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 80,
        Scale::Std => 200,
        Scale::Paper => 400,
    }
}

/// What one load run produces.
pub struct LoadReport {
    /// Requests sent (== offers answered).
    pub n: usize,
    /// Offers answered `Admitted`.
    pub admitted: u64,
    /// Offers answered `Shed` (graceful degradation, counted exactly).
    pub shed: u64,
    /// Round-trip decision latency percentiles, in microseconds.
    pub p50_us: f64,
    /// 95th percentile round trip, in microseconds.
    pub p95_us: f64,
    /// 99th percentile round trip, in microseconds.
    pub p99_us: f64,
    /// Summed round-trip time across all requests, in microseconds —
    /// what the trace's server-side span totals are compared against.
    pub total_us: u64,
    /// The server's final metrics snapshot, fetched over the wire.
    pub snapshot: MetricsSnapshot,
    /// The server's observability exposition, fetched over the wire via
    /// [`Request::Telemetry`](wisedb_serve::Request::Telemetry) right
    /// before shutdown. With tracing off this is just the header.
    pub telemetry: String,
}

impl LoadReport {
    /// Fraction of requests shed — deterministic under the seed, so the
    /// regress harness compares it exactly.
    pub fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.n as f64
    }
}

/// In-flight cap at each scale: 60% of the trace fits, the rest sheds.
/// Queries run minutes while the whole trace arrives in under a virtual
/// minute, so in-flight only grows during the replay — the first
/// `admission_cap` arrivals are admitted and every later one sheds,
/// independent of planner placement choices.
pub fn admission_cap(scale: Scale) -> u64 {
    (requests(scale) * 3 / 5) as u64
}

/// Builds the scenario's service: the catalog spec under a max-latency
/// SLA, trained small (the serve layer's cost is framing + planning, not
/// model quality). The admission valve is [`admission_cap`]; the age
/// quantum is one hour so the hot sub-minute trace never triggers a
/// synchronous retrain — decision latency measures the serve + planning
/// path, with retraining covered by its own benches.
pub fn build_service(scale: Scale) -> WorkloadService {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec)
        .expect("catalog specs admit defaults");
    let training = ModelConfig {
        num_samples: if scale == Scale::Quick { 60 } else { 120 },
        sample_size: 9,
        seed: 0x5E12E,
        ..ModelConfig::fast()
    };
    let config = RuntimeConfig {
        online: OnlineConfig {
            training,
            age_quantum: Millis::HOUR,
            ..OnlineConfig::default()
        },
        admission: AdmissionPolicy::MaxInFlight(admission_cap(scale)),
        ..RuntimeConfig::default()
    };
    WorkloadService::train(spec, goal, config).expect("training on the catalog spec succeeds")
}

/// The seeded hot trace the client replays.
pub fn trace(scale: Scale) -> Vec<ArrivingQuery> {
    let mut process = PoissonProcess::per_second(2.0, TemplateMix::uniform(10));
    wisedb::runtime::generate_stream(&mut process, requests(scale), 0x10AD)
}

/// Spawns a loopback server around `service`, replays the trace over one
/// connection, and reports counters + round-trip percentiles.
pub fn run(service: WorkloadService, scale: Scale) -> LoadReport {
    let handle = Server::spawn(service, ServeConfig::default()).expect("loopback bind succeeds");
    let mut client = Client::connect(handle.addr()).expect("loopback connect succeeds");

    let stream = trace(scale);
    // Round trips land in a `LatencyHistogram` whose ticks are
    // *microseconds* (the `wisedb-obs` registry convention), replacing a
    // raw sorted Vec — same nearest-rank contract as `percentile_sorted`,
    // quantized to 1 µs.
    let mut latencies = LatencyHistogram::new();
    let (mut admitted, mut shed) = (0u64, 0u64);
    for arrival in &stream {
        let started = Instant::now();
        let outcome = client
            .offer(arrival.class, arrival.template, arrival.arrival)
            .expect("offers over loopback succeed");
        latencies.push(Millis::from_millis(started.elapsed().as_micros() as u64));
        match outcome {
            wisedb_runtime::OfferOutcome::Admitted => admitted += 1,
            wisedb_runtime::OfferOutcome::Shed => shed += 1,
        }
    }
    let snapshot = client.metrics().expect("metrics over loopback succeed");
    let telemetry = client
        .telemetry()
        .expect("telemetry over loopback succeeds");
    client.shutdown().expect("shutdown over loopback succeeds");
    handle.join();

    LoadReport {
        n: stream.len(),
        admitted,
        shed,
        p50_us: latencies.percentile(50.0).as_millis() as f64,
        p95_us: latencies.percentile(95.0).as_millis() as f64,
        p99_us: latencies.percentile(99.0).as_millis() as f64,
        total_us: latencies.sum().as_millis(),
        snapshot,
        telemetry,
    }
}

/// Replays the trace over `clients` concurrent connections against a
/// server with `shards` scheduler shards. The trace is dealt round-robin,
/// so each client's slice keeps non-decreasing virtual arrival times; the
/// live cluster clamps stale instants (`advance_to` never rewinds), so
/// cross-client interleaving is safe — but it *does* change the admission
/// order, so per-verdict counts are only deterministic in aggregate:
/// every offer gets exactly one verdict, hence the server's
/// `admitted`/`rejected` totals still equal the clients' sums exactly.
/// Each client runs lockstep (offer, await, next), so at most `clients`
/// offers ever wait on the scheduler — far inside the default
/// `queue_depth`, meaning no queue sheds pollute the counters.
pub fn run_concurrent(
    service: WorkloadService,
    scale: Scale,
    clients: usize,
    shards: usize,
) -> LoadReport {
    let clients = clients.max(1);
    let config = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    let handle = Server::spawn(service, config).expect("loopback bind succeeds");
    let addr = handle.addr();

    let stream = trace(scale);
    let slices: Vec<Vec<ArrivingQuery>> = (0..clients)
        .map(|c| stream.iter().skip(c).step_by(clients).cloned().collect())
        .collect();
    let outcomes: Vec<(u64, u64, Vec<u64>)> = std::thread::scope(|scope| {
        slices
            .into_iter()
            .map(|slice| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("loopback connect succeeds");
                    let (mut admitted, mut shed) = (0u64, 0u64);
                    let mut micros = Vec::with_capacity(slice.len());
                    for arrival in &slice {
                        let started = Instant::now();
                        let outcome = client
                            .offer(arrival.class, arrival.template, arrival.arrival)
                            .expect("offers over loopback succeed");
                        micros.push(started.elapsed().as_micros() as u64);
                        match outcome {
                            wisedb_runtime::OfferOutcome::Admitted => admitted += 1,
                            wisedb_runtime::OfferOutcome::Shed => shed += 1,
                        }
                    }
                    (admitted, shed, micros)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });

    let mut latencies = LatencyHistogram::new();
    let (mut admitted, mut shed) = (0u64, 0u64);
    for (a, s, micros) in outcomes {
        admitted += a;
        shed += s;
        for us in micros {
            latencies.push(Millis::from_millis(us));
        }
    }

    let mut control = Client::connect(addr).expect("loopback connect succeeds");
    let snapshot = control.metrics().expect("metrics over loopback succeed");
    let telemetry = control
        .telemetry()
        .expect("telemetry over loopback succeeds");
    control.shutdown().expect("shutdown over loopback succeeds");
    handle.join();

    LoadReport {
        n: stream.len(),
        admitted,
        shed,
        p50_us: latencies.percentile(50.0).as_millis() as f64,
        p95_us: latencies.percentile(95.0).as_millis() as f64,
        p99_us: latencies.percentile(99.0).as_millis() as f64,
        total_us: latencies.sum().as_millis(),
        snapshot,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_match_nearest_rank_microseconds() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 2, 3, 4] {
            h.push(Millis::from_millis(us));
        }
        assert_eq!(h.percentile(50.0).as_millis(), 2);
        assert_eq!(h.percentile(95.0).as_millis(), 4);
        assert_eq!(h.percentile(100.0).as_millis(), 4);
        assert_eq!(LatencyHistogram::new().percentile(95.0), Millis::ZERO);
    }

    #[test]
    fn traces_are_seeded_and_scale_sized() {
        let a = trace(Scale::Quick);
        let b = trace(Scale::Quick);
        assert_eq!(a, b);
        assert_eq!(a.len(), requests(Scale::Quick));
        assert!(requests(Scale::Std) > requests(Scale::Quick));
    }
}
