//! # wisedb-sim
//!
//! The simulated substrate for WiSeDB's experiments: everything the paper
//! ran on real hardware that is reproduced synthetically here.
//!
//! * [`catalog`] — TPC-H-like template catalogs calibrated to the paper's
//!   published latencies and EC2 prices (§7.1).
//! * `generator` — uniform training samples ([`uniform_workload`]),
//!   χ²-controlled skewed batches, and online arrival processes.
//! * `live` — the cluster simulator ([`LiveCluster`]): a session that
//!   provisions, runs, and bills VMs as events fire (recallable queues,
//!   open-VM view, running bill). The streaming runtime drives it arrival
//!   by arrival.
//! * `cluster` — [`execute`], which replays a finished batch schedule
//!   on [`LiveCluster`] sessions, one per VM, optionally with true
//!   latencies in place of the predictions; with the predictions its cost
//!   equals the analytic Eq. 1 cost exactly.
//! * `noise` — latency-predictor error injection ([`perceive_workload`])
//!   and the closest-latency template matching rule (Figure 22).
//! * [`stats`] — means, deviations, and the chi-squared machinery
//!   (hand-rolled regularized incomplete gamma) behind Figures 20–21.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

pub mod catalog;
mod cluster;
mod generator;
mod live;
mod noise;
pub mod stats;

pub use cluster::{execute, ExecutionTrace, SimOptions, VmTrace};
pub use generator::{sample_workloads, skewed_workload, uniform_workload, Arrivals};
pub use live::{Completion, LiveCluster, LiveOptions, OpenVmView, RecalledQuery};
pub use noise::{perceive_workload, PerceivedWorkload};
