//! # wisedb-advisor
//!
//! The WiSeDB advisor proper: everything an application touches.
//!
//! * `model` — decision-model generation ([`ModelGenerator`], §4): sample
//!   workloads, solve them optimally, extract features, train the decision
//!   tree; plus model persistence and adaptive retraining for stricter
//!   goals (§5).
//! * `batch` — tree-driven batch scheduling ([`schedule_batch`]) with a
//!   deterministic guard for invalid suggestions (§4.5, §6.2).
//! * `online` — non-preemptive online scheduling ([`OnlineScheduler`])
//!   with aged templates, the open-VM initial vertex, model Reuse, and
//!   linear Shift (§6.3), with LRU-bounded model/view caches.
//! * `multi` — tenant SLA classes ([`MultiScheduler`]): per-class
//!   decision models multiplexed on one shared cluster view.
//! * `recommend` — the strategy-recommendation ladder
//!   ([`StrategyRecommender`]) with EMD pruning and per-template cost
//!   estimation functions (§6.1).
//! * `warm` — the canonical solve cache ([`SolveCache`]) behind warm
//!   retraining: duplicate sample signatures never re-run A*.
//! * `baselines` — FFD / FFI / Pack9 ([`Heuristic`]), the metric-specific
//!   heuristics the paper compares against (§3, §7.2).
//! * `emd` — 1-D Earth Mover's Distance ([`emd_1d`]).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

mod baselines;
mod batch;
mod emd;
mod model;
mod multi;
mod online;
mod recommend;
mod warm;

pub use baselines::Heuristic;
pub use batch::{schedule_batch, BatchPlan, StepSource};
pub use emd::emd_1d;
pub use model::{DecisionModel, ModelConfig, ModelGenerator, TrainingArtifacts, TrainingStats};
pub use multi::MultiScheduler;
pub use online::{
    ClusterView, OnlineConfig, OnlineCounters, OnlineScheduler, PendingArrival, PlannedStep,
    Planner,
};
pub use recommend::{
    attribute_costs, CostEstimator, RecommenderConfig, Strategy, StrategyRecommender,
};
pub use warm::{SolveCache, WarmStart};
