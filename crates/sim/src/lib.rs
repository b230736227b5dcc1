//! # wisedb-sim
//!
//! The simulated substrate for WiSeDB's experiments: everything the paper
//! ran on real hardware that is reproduced synthetically here.
//!
//! * [`catalog`] — TPC-H-like template catalogs calibrated to the paper's
//!   published latencies and EC2 prices (§7.1).
//! * [`generator`] — uniform training samples, χ²-controlled skewed batches,
//!   and online arrival processes.
//! * [`cluster`] — a discrete-event execution simulator that *runs*
//!   schedules (start-up delays, arrival gating, true-latency overrides)
//!   and bills them; with default options its cost equals the analytic
//!   Eq. 1 cost exactly.
//! * [`live`] — the steppable counterpart: an incremental cluster session
//!   that provisions, runs, and bills VMs as events fire, for the
//!   streaming runtime (recallable queues, open-VM view, running bill).
//! * [`noise`] — latency-predictor error injection and the closest-latency
//!   template matching rule (Figure 22).
//! * [`stats`] — means, percentiles, and the chi-squared machinery
//!   (hand-rolled regularized incomplete gamma) behind Figures 20–21.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod cluster;
pub mod generator;
pub mod live;
pub mod noise;
pub mod stats;

pub use cluster::{execute, ExecutionTrace, QueryTrace, SimOptions, VmTrace};
pub use generator::{sample_workloads, skewed_workload, uniform_workload, Arrivals};
pub use live::{Completion, LiveCluster, LiveOptions, OpenVmView, QueuedQuery, RecalledQuery};
pub use noise::{perceive_workload, PerceivedWorkload};
