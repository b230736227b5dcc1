//! # wisedb-learn
//!
//! The supervised-learning layer of WiSeDB (§4.4–4.5): turning optimal
//! scheduling decisions into a reusable policy.
//!
//! The pipeline is:
//!
//! 1. [`FeatureSchema`] summarizes each vertex of an optimal path
//!    with the paper's workload-size-agnostic features (`wait-time`,
//!    `proportion-of-X`, `supports-X`, `cost-of-X`, `have-X`).
//! 2. [`Dataset`] collects `(features, decision)` pairs across all
//!    sample workloads.
//! 3. [`DecisionTree`] — a from-scratch C4.5/J48-style learner
//!    (gain-ratio binary splits, pessimistic pruning) — generalizes those
//!    pairs into a workload-management strategy.
//!
//! The decision-tree learner is deliberately self-contained (no ML crates):
//! the Rust ecosystem offers no maintained C4.5 implementation, and the
//! paper's models are small enough (tens of features, shallow trees) that a
//! faithful reimplementation is both feasible and auditable.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

mod dataset;
mod features;
mod tree;

pub use dataset::Dataset;
pub use features::{hypothetical_placement_cost, FeatureKind, FeatureSchema};
pub use tree::{DecisionTree, TreeParams};
