//! # wisedb-search
//!
//! The scheduling graph and shortest-path machinery of WiSeDB (§4.3, §5).
//!
//! Scheduling a workload is modelled as navigating a weighted directed
//! graph: vertices are partial schedules plus the set of still-unassigned
//! queries, edges either rent a VM (*start-up edges*, weight `f_s`) or place
//! a query on the most recently rented VM (*placement edges*, weight
//! `l(q,i)·f_r + Δpenalty`, Eq. 2). A minimum-cost path from "everything
//! unassigned" to "nothing unassigned" is a minimum-cost schedule under
//! Eq. 1 — found here by the pluggable solver layer ([`strategy`]): exact
//! A* ([`strategy::ExactAStar`], the default), partial-expansion A*
//! ([`strategy::PartialExpansionAStar`], exact with a bounded successor
//! appetite), beam search ([`strategy::BeamSearch`]), anytime weighted A*
//! ([`strategy::AnytimeWeightedAStar`]), and, for families of tightening
//! goals, adaptive A* ([`adaptive::AdaptiveSearcher`]).
//!
//! The searcher also reports the *decision path* (which edge was taken at
//! which vertex), which is exactly the training signal the learning crate
//! consumes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod canonical;
pub mod decision;
pub mod heuristic;
pub mod key;
pub mod state;
pub mod strategy;

pub use adaptive::AdaptiveSearcher;
pub use canonical::CanonicalOrder;
pub use decision::Decision;
pub use heuristic::HeuristicTable;
pub use key::{KeyRef, StateKey};
pub use state::{LastVm, SearchState};
pub use strategy::{
    solve_counts, AnytimeWeightedAStar, BeamSearch, DecisionStep, ExactAStar, ExploredStates,
    HeuristicMemo, OptimalSchedule, PartialExpansionAStar, Plan, SearchConfig, SearchOutcome,
    SearchStats, SearchStrategy, Solver, Strategy,
};
