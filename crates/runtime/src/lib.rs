//! # wisedb-runtime
//!
//! The streaming side of WiSeDB: an event-driven **online workload
//! management service** that runs the paper's §6.3 rescheduling loop
//! continuously against a live (simulated) IaaS cluster, instead of
//! replaying a pre-recorded arrival list batch-at-a-time.
//!
//! * [`arrivals`] — pluggable arrival processes: Poisson, bursty ON-OFF,
//!   diurnal (sinusoidal rate), and template-mix drift, all deterministic
//!   under a seed.
//! * [`admission`] — overload control: shed arrivals when queues, flight
//!   counts, or fleet size cross a limit (or any custom hook).
//! * [`metrics`] — live accounting; emits
//!   [`MetricsSnapshot`](wisedb_core::MetricsSnapshot)s with p50/p95/p99
//!   latency, SLA-violation rate, $/hour, fleet gauges, and scheduler
//!   decision latency.
//! * [`service`] — [`WorkloadService`], the virtual-clock event loop
//!   wiring per-class `OnlineScheduler`s (incremental planning,
//!   LRU-bounded Reuse/Shift caches, parallel retraining, hot model
//!   swaps) to `LiveCluster` (incremental provisioning, execution,
//!   per-class billing). Multiple tenant SLA classes multiplex onto one
//!   shared fleet via [`WorkloadService::train_classes`]; a single-class
//!   service is bit-identical to the legacy single-goal one. Every solve
//!   the service triggers — (re)training and per-arrival oracle replans —
//!   runs whichever `wisedb_search::SearchStrategy` the embedded
//!   `OnlineConfig` selects (`OnlineConfig::with_strategy`): exact A* by
//!   default, or bounded-suboptimality beam/anytime replanning under the
//!   per-arrival expansion budget.
//!   One engine serves both entry points: a same-class burst plans inline
//!   against the live cluster, and a multi-class
//!   [`offer_tick`](WorkloadService::offer_tick) admits every group, plans
//!   them all against one epoch snapshot and merges in tick order.
//! * [`shard`] — *where* a multi-class tick is planned, under
//!   [`ShardConfig`]: on the calling thread with one shard (the default:
//!   no worker thread, no channel), or fanned out to persistent shard
//!   worker threads with more, a greedy EMA-driven rebalancer moving hot
//!   classes between them. The serial tick-order merge keeps billing,
//!   completions, and metrics bit-identical for any shard count.
//!
//! ## Quickstart
//!
//! ```
//! use wisedb_runtime::prelude::*;
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
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod arrivals;
pub mod metrics;
pub mod service;
pub mod shard;

pub use admission::{AdmissionPolicy, LoadStatus};
pub use arrivals::{
    generate_class_stream, generate_stream, merge_streams, ArrivalProcess, DiurnalProcess,
    DriftProcess, OnOffProcess, PoissonProcess, TemplateMix,
};
pub use metrics::MetricsCollector;
pub use service::{OfferOutcome, RuntimeConfig, StreamReport, WorkloadService};
pub use shard::{LoadSignal, ShardConfig, ShardLaneStats, ShardStats, ShardedService, TickGroup};

/// One-stop imports for driving the streaming runtime.
pub mod prelude {
    pub use crate::admission::{AdmissionPolicy, LoadStatus};
    pub use crate::arrivals::{
        generate_class_stream, generate_stream, merge_streams, ArrivalProcess, DiurnalProcess,
        DriftProcess, OnOffProcess, PoissonProcess, TemplateMix,
    };
    pub use crate::metrics::MetricsCollector;
    pub use crate::service::{OfferOutcome, RuntimeConfig, StreamReport, WorkloadService};
    pub use crate::shard::{LoadSignal, ShardConfig, ShardStats};
    pub use wisedb_core::{ClassMetrics, LatencySummary, MetricsSnapshot, SlaClass, TenantId};
}
