//! # wisedb-advisor
//!
//! The WiSeDB advisor proper: everything an application touches.
//!
//! * [`model`] — decision-model generation (§4): sample workloads, solve
//!   them optimally, extract features, train the decision tree; plus model
//!   persistence and adaptive retraining for stricter goals (§5).
//! * [`batch`] — tree-driven batch scheduling with a deterministic guard
//!   for invalid suggestions (§4.5, §6.2).
//! * [`online`] — non-preemptive online scheduling with aged templates,
//!   the open-VM initial vertex, model Reuse, and linear Shift (§6.3),
//!   with LRU-bounded model/view caches.
//! * [`multi`] — tenant SLA classes: per-class decision models multiplexed
//!   on one shared cluster view.
//! * [`strategy`] — the strategy-recommendation ladder with EMD pruning
//!   and per-template cost estimation functions (§6.1).
//! * [`warm`] — the canonical solve cache behind warm retraining:
//!   duplicate sample signatures never re-run A*.
//! * [`baselines`] — FFD / FFI / Pack9, the metric-specific heuristics the
//!   paper compares against (§3, §7.2).
//! * [`emd`] — 1-D Earth Mover's Distance.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod batch;
pub mod emd;
pub mod model;
pub mod multi;
pub mod online;
pub mod strategy;
pub mod warm;

pub use baselines::Heuristic;
pub use batch::{schedule_batch, BatchPlan, StepSource};
pub use emd::emd_1d;
pub use model::{DecisionModel, ModelConfig, ModelGenerator, TrainingArtifacts, TrainingStats};
pub use multi::MultiScheduler;
pub use online::{
    ArrivalPlan, ArrivingQuery, ClusterView, OnlineConfig, OnlineOutcome, OnlineReport,
    OnlineScheduler, OpenVmView, PendingArrival, PlannedStep, Planner,
};
pub use strategy::{
    attribute_costs, CostEstimator, RecommenderConfig, Strategy, StrategyRecommender,
};
pub use warm::{Signature, SolveCache, SolvedEntry, WarmStart, DEFAULT_CACHE_CAPACITY};
