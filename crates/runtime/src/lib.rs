//! # wisedb-runtime
//!
//! The streaming side of WiSeDB: an event-driven **online workload
//! management service** that runs the paper's §6.3 rescheduling loop
//! continuously against a live (simulated) IaaS cluster, instead of
//! replaying a pre-recorded arrival list batch-at-a-time.
//!
//! * `arrivals` — pluggable arrival processes ([`ArrivalProcess`]):
//!   Poisson, bursty ON-OFF, diurnal (sinusoidal rate), and template-mix
//!   drift, all deterministic under a seed.
//! * `admission` — overload control ([`AdmissionPolicy`]): shed arrivals
//!   when queues, flight counts, or fleet size cross a limit (or any
//!   custom hook).
//! * `metrics` — live accounting; emits
//!   [`MetricsSnapshot`](wisedb_core::MetricsSnapshot)s with p50/p95/p99
//!   latency, SLA-violation rate, $/hour, fleet gauges, and scheduler
//!   decision latency.
//! * `service` — [`WorkloadService`], the virtual-clock event loop
//!   wiring per-class `OnlineScheduler`s (incremental planning,
//!   LRU-bounded Reuse/Shift caches, parallel retraining, hot model
//!   swaps) to `LiveCluster` (incremental provisioning, execution,
//!   per-class billing). Multiple tenant SLA classes multiplex onto one
//!   shared fleet via [`WorkloadService::train_classes`]; a single-class
//!   service is bit-identical to the legacy single-goal one. It is the
//!   one online loop: the advisor plans, `LiveCluster` executes, and the
//!   paper's online figures replay streams through it. Every solve
//!   the service triggers — (re)training and per-arrival oracle replans —
//!   runs whichever `wisedb_search::SearchStrategy` the embedded
//!   `OnlineConfig` selects (its `training.search` and `oracle_search`
//!   configs): exact A* by default, or bounded-suboptimality anytime
//!   search under the expansion budget.
//!   One engine serves both entry points: a same-class burst plans inline
//!   against the live cluster, and a multi-class
//!   [`offer_tick`](WorkloadService::offer_tick) admits every group, takes
//!   one epoch view, and plans and merges each group against it in tick
//!   order, all on the calling thread.
//! * `shard` — the names `benchmark/` still uses from the sharding era
//!   ([`ShardedService`], [`ShardConfig`], [`LoadSignal`], [`ShardStats`],
//!   `into_sharded`), accepted and ignored.
//!
//! ## Quickstart
//!
//! ```
//! use wisedb_runtime::{PoissonProcess, RuntimeConfig, TemplateMix, WorkloadService};
//! use wisedb_advisor::{ModelConfig, OnlineConfig};
//! use wisedb_core::{GoalKind, Millis, PerformanceGoal, VmType, WorkloadSpec};
//!
//! // Two templates on one VM type; max-latency SLA.
//! let spec = WorkloadSpec::single_vm(
//!     vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
//!     VmType::t2_medium(),
//! )
//! .unwrap();
//! let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
//!
//! // A small training budget keeps the doc test fast.
//! let config = RuntimeConfig {
//!     online: OnlineConfig {
//!         training: ModelConfig { num_samples: 40, sample_size: 5, ..ModelConfig::fast() },
//!         ..OnlineConfig::default()
//!     },
//!     ..RuntimeConfig::default()
//! };
//! let mut service = WorkloadService::train(spec, goal, config).unwrap();
//!
//! // Stream 20 Poisson arrivals through the loop and read the dashboard.
//! let mut process = PoissonProcess::per_second(0.05, TemplateMix::uniform(2));
//! let report = service.run_process(&mut process, 20).unwrap();
//! assert_eq!(report.last.completed, 20);
//! assert!(report.last.dollars_per_hour > 0.0);
//! assert!(report.last.latency.p95 >= report.last.latency.p50);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

mod admission;
mod arrivals;
mod metrics;
mod service;
mod shard;

/// The independent reference replay of the §6.3 loop, shared with the
/// integration tests; `service`'s tests compare against it. Its items are
/// `pub` because the integration tests under `tests/` use the same file.
#[cfg(test)]
#[allow(unreachable_pub)]
#[path = "../../../tests/support/replayer.rs"]
mod replayer;

pub use admission::{AdmissionPolicy, LoadStatus};
pub use arrivals::{
    generate_class_stream, generate_stream, merge_streams, ArrivalProcess, DiurnalProcess,
    DriftProcess, OnOffProcess, PoissonProcess, TemplateMix,
};
pub use service::{
    OfferOutcome, RuntimeConfig, StreamReport, TickGroup, TickStats, WorkloadService,
};
pub use shard::{LoadSignal, ShardConfig, ShardStats, ShardedService};
