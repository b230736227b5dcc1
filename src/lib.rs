//! # WiSeDB
//!
//! A from-scratch Rust reproduction of **"WiSeDB: A Learning-based Workload
//! Management Advisor for Cloud Databases"** (Ryan Marcus and Olga
//! Papaemmanouil, VLDB 2016).
//!
//! WiSeDB answers three questions for an application running analytical
//! queries on an IaaS cloud, all at once and for a custom SLA:
//!
//! 1. **Provisioning** — how many VMs, of which types, to rent;
//! 2. **Placement** — which query runs on which VM;
//! 3. **Scheduling** — in what order each VM processes its queue;
//!
//! so that the total of VM start-up fees, rental time, and SLA penalties is
//! minimized. Instead of a hand-written heuristic per metric, WiSeDB *learns*
//! a decision-tree policy from optimal schedules of small sample workloads
//! and then applies it to arbitrarily large batch or online workloads.
//!
//! This facade crate re-exports the five subsystem crates:
//!
//! * [`core`](wisedb_core) — templates, VM types, schedules, SLAs, Eq. 1.
//! * [`search`](wisedb_search) — the scheduling graph and (adaptive) A*.
//! * [`learn`](wisedb_learn) — feature extraction and the decision-tree
//!   learner.
//! * [`advisor`](wisedb_advisor) — model generation (parallel per-sample
//!   solves), batch/online scheduling, strategy recommendation, and
//!   baseline heuristics.
//! * [`sim`](wisedb_sim) — the simulated IaaS cloud, workload generators,
//!   the TPC-H-like catalog used by the experiments, and the steppable
//!   live-cluster session.
//! * [`runtime`](wisedb_runtime) — the streaming online service: arrival
//!   processes, admission control, the virtual-clock event loop, and live
//!   SLA metrics.
//! * [`serve`](wisedb_serve) — the network-facing deployment: the runtime
//!   loop behind a versioned TCP wire protocol, with request batching,
//!   graceful shedding, and hot model swaps over the wire.
//! * [`obs`](wisedb_obs) — the observability layer: near-zero-overhead
//!   tracing spans and events threaded through every crate above, a
//!   metrics registry, and Chrome-trace / JSONL / Prometheus-style
//!   exporters (see ARCHITECTURE.md's span taxonomy).
//!
//! ## Building and running
//!
//! The repo is a self-contained Cargo workspace — external dependencies
//! (`serde`, `serde_derive`, `serde_json`, `rand`, `proptest`, `byteorder`,
//! `threadpool`) are vendored as minimal offline stand-ins under
//! `vendor/`, so a plain toolchain with no network access suffices:
//!
//! ```text
//! cargo build --release          # all seven crates + this facade
//! cargo test -q                  # tier-1: unit + integration + doc tests
//! cargo run --release --example quickstart
//! cargo run --release -p wisedb-bench --bin fig -- 9   # paper figures
//! cargo run --release -p wisedb-bench --bin streaming  # streaming runtime
//! bash benchmark/run.sh          # the timing benchmark (BENCHMARK.json)
//! ```
//!
//! See `ARCHITECTURE.md` for the crate map and data flow, and
//! `tests/README.md` for the test-tier layout.
//!
//! ## Quickstart
//!
//! ```
//! use wisedb::prelude::*;
//!
//! // The paper's experimental setup: 10 TPC-H-like templates, t2.medium.
//! let spec = wisedb::sim::catalog::tpch_like(10);
//! let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
//!
//! // Train a decision model on optimal schedules of small sample workloads.
//! let config = ModelConfig::fast(); // small N for doc tests
//! let model = ModelGenerator::new(spec.clone(), goal.clone(), config)
//!     .train()
//!     .unwrap();
//!
//! // Schedule an incoming batch of 30 queries.
//! let workload = wisedb::sim::generator::uniform_workload(&spec, 30, 42);
//! let schedule = model.schedule_batch(&workload).unwrap();
//! let cost = total_cost(&spec, &goal, &schedule).unwrap();
//! assert!(schedule.num_vms() >= 1);
//! assert!(cost > Money::ZERO);
//! ```
//!
//! ## Streaming runtime
//!
//! The batch quickstart schedules a workload that is fully known up front.
//! The [`runtime`](wisedb_runtime) crate instead *streams*: arrivals from a
//! pluggable process (Poisson, bursty ON-OFF, diurnal, template-drift) are
//! pushed through the §6.3 rescheduling loop against a live simulated
//! cluster, with admission control and live SLA metrics:
//!
//! ```
//! use wisedb::prelude::*;
//!
//! let spec = wisedb::sim::catalog::tpch_like(4);
//! let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
//! let config = RuntimeConfig {
//!     online: OnlineConfig {
//!         training: ModelConfig { num_samples: 40, sample_size: 5, ..ModelConfig::fast() },
//!         ..OnlineConfig::default()
//!     },
//!     ..RuntimeConfig::default()
//! };
//! let mut service = WorkloadService::train(spec, goal, config).unwrap();
//!
//! // 20 Poisson arrivals at one query per 100 s of virtual time.
//! let mut process = PoissonProcess::per_second(0.01, TemplateMix::uniform(4));
//! let report = service.run_process(&mut process, 20).unwrap();
//! assert_eq!(report.last.completed, 20);
//! // The dashboard numbers: p95 latency, violation rate, spend rate.
//! assert!(report.last.latency.p95 >= report.last.latency.p50);
//! assert!(report.last.violation_rate <= 1.0);
//! assert!(report.last.dollars_per_hour > 0.0);
//! ```

pub use wisedb_advisor as advisor;
pub use wisedb_core as core;
pub use wisedb_learn as learn;
pub use wisedb_obs as obs;
pub use wisedb_runtime as runtime;
pub use wisedb_search as search;
pub use wisedb_serve as serve;
pub use wisedb_sim as sim;

/// One-stop imports for applications using the advisor.
pub mod prelude {
    pub use wisedb_advisor::baselines::{self, Heuristic};
    pub use wisedb_advisor::model::{DecisionModel, ModelConfig, ModelGenerator};
    pub use wisedb_advisor::multi::MultiScheduler;
    pub use wisedb_advisor::online::{OnlineConfig, OnlineScheduler};
    pub use wisedb_advisor::strategy::{RecommenderConfig, StrategyRecommender};
    pub use wisedb_core::{
        cost_breakdown, total_cost, ClassMetrics, CostBreakdown, GoalHandle, GoalKind,
        LatencySummary, MetricsSnapshot, Millis, Money, PenaltyRate, PerformanceGoal, Query,
        QueryId, QueryTemplate, Schedule, SlaClass, SpecHandle, TemplateId, TenantId, VmType,
        VmTypeId, Workload, WorkloadSpec,
    };
    pub use wisedb_runtime::{
        generate_class_stream, merge_streams, AdmissionPolicy, ArrivalProcess, DiurnalProcess,
        DriftProcess, OnOffProcess, PoissonProcess, RuntimeConfig, ShardConfig, StreamReport,
        TemplateMix, WorkloadService,
    };
    pub use wisedb_search::strategy::{OptimalSchedule, SearchConfig, SearchStrategy, Solver};
    pub use wisedb_serve::{Client, ServeConfig, Server, ServerHandle};
    pub use wisedb_sim::{LiveCluster, LiveOptions};
}
