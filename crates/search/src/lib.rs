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
//! Eq. 1 — found here by the solver layer ([`Solver`]): exact A*
//! ([`SearchStrategy::Exact`], the default) or anytime weighted A*
//! ([`SearchStrategy::Anytime`], bounded suboptimality under the expansion
//! budget), and, for families of tightening goals, adaptive A*
//! ([`AdaptiveSearcher`]).
//!
//! The searcher also reports the *decision path* (which edge was taken at
//! which vertex), which is exactly the training signal the learning crate
//! consumes.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

mod adaptive;
mod canonical;
mod decision;
mod heuristic;
mod key;
mod state;
mod strategy;

pub use adaptive::AdaptiveSearcher;
pub use canonical::CanonicalOrder;
pub use decision::Decision;
pub use heuristic::HeuristicTable;
pub use key::{KeyRef, StateKey};
pub use state::{LastVm, SearchState};
pub use strategy::{
    DecisionStep, ExploredStates, HeuristicMemo, OptimalSchedule, Plan, SearchConfig,
    SearchOutcome, SearchStats, SearchStrategy, Solver,
};
