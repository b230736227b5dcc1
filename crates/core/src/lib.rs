//! # wisedb-core
//!
//! Domain model for **WiSeDB** (Marcus & Papaemmanouil, VLDB 2016), a
//! learning-based workload management advisor for cloud databases.
//!
//! This crate defines the vocabulary every other WiSeDB crate speaks:
//!
//! * [`Millis`] and [`Money`] — exact durations and dollar amounts.
//! * [`QueryTemplate`] / [`TemplateId`] — parameterized queries whose
//!   instances share latency characteristics (§2).
//! * [`VmType`] / [`VmTypeId`] — rentable VM configurations with start-up
//!   fees and hourly rates (§3).
//! * [`WorkloadSpec`] — the application's workload specification: templates
//!   plus VM types.
//! * [`SpecHandle`] / [`GoalHandle`] — cheap `Arc`-backed shared views of a
//!   spec/goal, what the advisor and runtime layers pass around.
//! * [`Workload`] / [`Query`] — batches of template instances.
//! * [`Schedule`] — provisioned VMs with ordered query queues; the object
//!   WiSeDB ultimately produces.
//! * [`PerformanceGoal`] — the four SLA classes (per-query, max, average,
//!   percentile) with violation-period penalty semantics (§3).
//! * [`cost::total_cost`] — Equation 1, the quantity everything minimizes.
//! * [`ArrivingQuery`] / [`MetricsSnapshot`] — online arrivals (§6.3) and
//!   the live health metrics of the streaming runtime.
//! * [`TenantId`] / [`SlaClass`] / [`ClassMetrics`] — tenant SLA classes:
//!   multiple performance goals multiplexed on one shared fleet, with
//!   per-class metrics and dollar attribution.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod error;
pub mod goal;
pub mod handle;
pub mod money;
pub mod schedule;
pub mod spec;
pub mod stream;
pub mod template;
pub mod tenant;
pub mod time;
pub mod vm;
pub mod workload;

pub use cost::{cost_breakdown, total_cost, CostBreakdown};
pub use error::{CoreError, CoreResult};
pub use goal::{
    DigestBuckets, GoalKind, PenaltyDigest, PenaltyTracker, PercentileDigest, PerformanceGoal,
};
pub use handle::{GoalHandle, SpecHandle};
pub use money::{Money, PenaltyRate};
pub use schedule::{Placement, QueryLatency, Schedule, VmInstance};
pub use spec::WorkloadSpec;
pub use stream::{
    percentile_sorted, ArrivingQuery, LatencyHistogram, LatencySummary, MetricsSnapshot, OpenVmView,
};
pub use template::{QueryTemplate, TemplateId};
pub use tenant::{validate_classes, ClassMetrics, SlaClass, TenantId};
pub use time::Millis;
pub use vm::{VmType, VmTypeId};
pub use workload::{Query, QueryId, Workload};
