//! The serve-layer load scenario: replay an arrival trace over the wire
//! and count the verdicts.
//!
//! One loopback [`Server`] fronts a freshly trained single-class service;
//! one [`Client`] connection replays a seeded Poisson trace *sequentially*
//! (offer, await verdict, next). The sequential replay keeps every
//! admission decision deterministic — same trace, same virtual times, same
//! shed set — so `admitted`/`shed` are exact regress **counters**. Round
//! trips are not timed here: `benchmark/`'s serve workloads measure them.
//!
//! The trace runs hot (Poisson at 2 q/s against 2–6-minute queries) with
//! a `MaxInFlight` admission cap sized at 60% of the trace, so a fixed
//! tail of it is shed — exercising the graceful-degradation path (`Shed`
//! frames, never dropped connections).
//!
//! Used by `--bin regress`, which records the `serve/*` counters.

use wisedb::prelude::*;
use wisedb_core::ArrivingQuery;
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
    /// The server's final metrics snapshot, fetched over the wire.
    pub snapshot: MetricsSnapshot,
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
/// connection, and reports the verdict counters. Panics unless the
/// server's `admitted`/`rejected` totals equal the client's counts: every
/// offer is answered exactly once.
pub fn run(service: WorkloadService, scale: Scale) -> LoadReport {
    let handle = Server::spawn(service, ServeConfig::default()).expect("loopback bind succeeds");
    let mut client = Client::connect(handle.addr()).expect("loopback connect succeeds");

    let stream = trace(scale);
    let (mut admitted, mut shed) = (0u64, 0u64);
    for arrival in &stream {
        let outcome = client
            .offer(arrival.class, arrival.template, arrival.arrival)
            .expect("offers over loopback succeed");
        match outcome {
            wisedb_runtime::OfferOutcome::Admitted => admitted += 1,
            wisedb_runtime::OfferOutcome::Shed => shed += 1,
        }
    }
    let snapshot = client.metrics().expect("metrics over loopback succeed");
    client.shutdown().expect("shutdown over loopback succeeds");
    handle.join();

    assert_eq!(
        snapshot.admitted, admitted,
        "server-side admit count must match the client's"
    );
    assert_eq!(
        snapshot.rejected, shed,
        "server-side shed count must match the client's"
    );
    LoadReport {
        n: stream.len(),
        admitted,
        shed,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_seeded_and_scale_sized() {
        let a = trace(Scale::Quick);
        let b = trace(Scale::Quick);
        assert_eq!(a, b);
        assert_eq!(a.len(), requests(Scale::Quick));
        assert!(requests(Scale::Std) > requests(Scale::Quick));
    }
}
