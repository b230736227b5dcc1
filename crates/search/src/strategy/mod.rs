//! Pluggable search strategies over the scheduling graph.
//!
//! WiSeDB's pipeline bottoms out in one shortest-path solve per training
//! sample, oracle baseline, and online replan. The paper's exact A* (§4.3)
//! is the right default — but percentile goals explode the state space
//! (the digest distinguishes every completion multiset), and training only
//! needs *near*-optimal paths because the learned model generalizes past
//! individual solutions. So the solver is a strategy, not a constant:
//!
//! * [`ExactAStar`] — the paper's search, bit-identical to the historical
//!   monolith. First goal popped is provably optimal.
//! * [`BeamSearch`] — level-synchronous beam of configurable width with
//!   admissible-heuristic tie-breaking. Linear-time, no optimality proof
//!   (unless nothing was ever pruned, which it detects).
//! * [`AnytimeWeightedAStar`] — anytime weighted A* (Hansen & Zhou):
//!   orders expansion by `g + w·h` with `w = 1 + ε`, keeps searching past
//!   the first incumbent with ε decaying at every improvement, and returns
//!   the best incumbent with a **proven suboptimality bound** when the
//!   node/time budget expires (or the optimum, if the open list drains).
//! * [`PartialExpansionAStar`] — exact like the first, but each expansion
//!   enqueues only the successors whose `f` fits under the vertex's stored
//!   `F`, re-enqueueing the vertex with a raised `F` for the rest — the
//!   classic PEA* trade of cheap re-expansions for a drastically smaller
//!   interned frontier on wide branching (percentile goals fan out per
//!   template × placement).
//!
//! All four share the interned-state machinery ([`common`]): one
//! successor-pricing routine, the dense state-id interner, flat id-indexed
//! g/h tables, and the greedy upper bound. [`Solver`] is the single entry
//! point — [`SearchConfig::strategy`] picks the implementation.

use serde::{Deserialize, Serialize};

use wisedb_core::{
    CoreResult, Money, PerformanceGoal, Schedule, VmInstance, Workload, WorkloadSpec,
};

use crate::canonical::CanonicalOrder;
use crate::decision::Decision;
use crate::heuristic::HeuristicTable;
use crate::key::{KeyArena, KeyRef, KeyTable};
use crate::state::SearchState;

pub mod anytime;
pub mod beam;
pub(crate) mod common;
pub mod exact;
pub mod pea;

pub use anytime::AnytimeWeightedAStar;
pub use beam::BeamSearch;
pub use common::SearchCx;
pub use exact::ExactAStar;
pub use pea::PartialExpansionAStar;

/// Which search strategy a [`Solver`] runs. Serializable, so training and
/// replan configurations can persist their solver choice, and parseable
/// (`exact`, `beam[:width]`, `anytime[:weight[:decay]]`) so benchmark
/// sweeps can select one from an environment variable or CLI flag without
/// recompiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Exact A* — provably optimal, the historical behaviour.
    #[default]
    Exact,
    /// Level-synchronous beam search.
    Beam {
        /// Vertices kept per level (must be ≥ 1).
        width: usize,
    },
    /// Anytime weighted A* with a decaying inflation factor.
    Anytime {
        /// Initial heuristic inflation `w = 1 + ε` (≥ 1).
        weight: f64,
        /// Multiplier applied to ε at every incumbent improvement, in
        /// `[0, 1]` — `w` decays toward 1 as solutions are found.
        decay: f64,
    },
    /// Partial-expansion A* — exact like [`SearchStrategy::Exact`], but an
    /// expansion materializes only the successors whose `f` does not exceed
    /// the vertex's stored `F`, deferring the rest and re-enqueueing the
    /// vertex with a raised `F`. Trades re-expansions for a much smaller
    /// interned/open frontier on wide branching.
    Pea,
}

impl SearchStrategy {
    /// Default beam width when none is given (`beam` with no `:width`).
    pub const DEFAULT_BEAM_WIDTH: usize = 512;
    /// Default anytime inflation (`w = 1.5`).
    pub const DEFAULT_ANYTIME_WEIGHT: f64 = 1.5;
    /// Default anytime decay (ε halves at every incumbent improvement).
    pub const DEFAULT_ANYTIME_DECAY: f64 = 0.5;

    /// The beam strategy at its default width.
    pub fn beam() -> Self {
        SearchStrategy::Beam {
            width: Self::DEFAULT_BEAM_WIDTH,
        }
    }

    /// The anytime strategy at its default weight and decay.
    pub fn anytime() -> Self {
        SearchStrategy::Anytime {
            weight: Self::DEFAULT_ANYTIME_WEIGHT,
            decay: Self::DEFAULT_ANYTIME_DECAY,
        }
    }

    /// Whether this strategy can prove optimality on an unbounded budget.
    pub fn is_exact(&self) -> bool {
        matches!(self, SearchStrategy::Exact | SearchStrategy::Pea)
    }
}

impl std::fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchStrategy::Exact => write!(f, "exact"),
            SearchStrategy::Beam { width } => write!(f, "beam:{width}"),
            SearchStrategy::Anytime { weight, decay } => {
                write!(f, "anytime:{weight}:{decay}")
            }
            SearchStrategy::Pea => write!(f, "pea"),
        }
    }
}

impl std::str::FromStr for SearchStrategy {
    type Err = String;

    /// Parses `exact`, `pea`, `beam`, `beam:WIDTH`, `anytime`,
    /// `anytime:WEIGHT`, or `anytime:WEIGHT:DECAY`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or_default().trim().to_lowercase();
        let parse_f64 = |p: Option<&str>, what: &str, default: f64| -> Result<f64, String> {
            match p {
                None => Ok(default),
                Some(raw) => raw
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| format!("invalid {what} {raw:?} in strategy {s:?}")),
            }
        };
        let strategy = match head.as_str() {
            "exact" | "astar" => SearchStrategy::Exact,
            "pea" | "pea*" | "peastar" => SearchStrategy::Pea,
            "beam" => {
                let width = match parts.next() {
                    None => Self::DEFAULT_BEAM_WIDTH,
                    Some(raw) => raw
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("invalid beam width {raw:?} in {s:?}"))?,
                };
                if width == 0 {
                    return Err(format!("beam width must be >= 1 in {s:?}"));
                }
                SearchStrategy::Beam { width }
            }
            "anytime" | "awastar" => {
                let weight = parse_f64(parts.next(), "weight", Self::DEFAULT_ANYTIME_WEIGHT)?;
                let decay = parse_f64(parts.next(), "decay", Self::DEFAULT_ANYTIME_DECAY)?;
                if weight < 1.0 {
                    return Err(format!("anytime weight must be >= 1 in {s:?}"));
                }
                if !(0.0..=1.0).contains(&decay) {
                    return Err(format!("anytime decay must be in [0, 1] in {s:?}"));
                }
                SearchStrategy::Anytime { weight, decay }
            }
            other => {
                return Err(format!(
                    "unknown strategy {other:?} (expected exact | pea | beam[:width] | \
                     anytime[:weight[:decay]])"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("trailing components in strategy {s:?}"));
        }
        Ok(strategy)
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
    /// the historical behaviour.
    #[serde(default)]
    pub strategy: SearchStrategy,
    /// Optional wall-clock budget in milliseconds. Checked coarsely (every
    /// few thousand expansions), so treat it as a soft deadline; `None`
    /// (the default) keeps searches deterministic.
    #[serde(default)]
    pub time_limit_ms: Option<u64>,
}

impl SearchConfig {
    /// The default configuration with a different strategy.
    pub fn with_strategy(strategy: SearchStrategy) -> Self {
        SearchConfig {
            strategy,
            ..SearchConfig::default()
        }
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            node_limit: 4_000_000,
            strategy: SearchStrategy::Exact,
            time_limit_ms: None,
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
    /// Whether the search stopped on its expansion or time budget (the
    /// [`SearchConfig::node_limit`] semantics) instead of finishing.
    pub limit_hit: bool,
    /// Times the best-known complete schedule (the incumbent) improved.
    pub incumbents: u64,
    /// Successor states discarded by beam truncation — the work a
    /// bounded-width search declined to do.
    pub pruned: u64,
    /// Times an already-cached vertex was popped again to promote more of
    /// its successors — partial expansion's currency (always 0 for the
    /// other strategies).
    pub reexpansions: u64,
    /// Successor deferrals: a priced successor left cached (not enqueued)
    /// past the end of an expansion because its `f` exceeded the vertex's
    /// stored `F`. The same successor can defer repeatedly across
    /// re-expansions.
    pub deferred: u64,
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
            pruned: 0,
            reexpansions: 0,
            deferred: 0,
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
/// heuristic — the mechanism behind adaptive A* (§5). A [`KeyTable`] with a
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
        self.raise_capped(key, h, usize::MAX);
    }

    /// Like [`HeuristicMemo::raise`], but refuses to grow past `cap`
    /// entries: existing keys may still be raised, new keys are dropped
    /// once the memo is full. Raising and dropping are both
    /// order-independent per key, so a sequence of capped raises is
    /// deterministic for any fixed insertion order.
    pub fn raise_capped(&mut self, key: KeyRef<'_>, h: f64, cap: usize) {
        let Some(id) = self.keys.intern_if(key, self.values.len() < cap) else {
            return;
        };
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

/// A search strategy: given the shared pricing/interning context and an
/// initial vertex, produce a complete decision path. Implementations must
/// return a path to a goal vertex (falling back to the greedy completion
/// is always possible) and fill [`SearchStats`] honestly — in particular
/// `optimal` only when the cost is provably minimal and `bound` with a
/// sound multiplicative guarantee.
pub trait Strategy {
    /// Short human-readable name (`exact`, `beam`, `anytime`).
    fn name(&self) -> &'static str;

    /// Runs the search from `initial`. When `keep_explored` is set, the
    /// returned [`ExploredStates`] carries the settled g-values for
    /// adaptive reuse; otherwise it may be empty.
    fn search(
        &self,
        cx: &SearchCx<'_>,
        initial: SearchState,
        keep_explored: bool,
    ) -> (SearchOutcome, ExploredStates);
}

/// The solver: owns the heuristic table and symmetry reduction for one
/// (spec, goal) pair and runs whichever [`SearchStrategy`] its
/// configuration selects. With the default configuration it behaves
/// bit-identically to the pre-strategy exact searcher.
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
    /// reduction (see [`crate::canonical`]) is enabled automatically.
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
    pub fn with_memo(mut self, memo: &'a HeuristicMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Finds a minimum-cost (exact strategy) or bounded-suboptimality
    /// (beam/anytime) complete schedule for `workload`.
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

    /// Runs the configured strategy from `initial`.
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
        let (outcome, explored) = match self.config.strategy {
            SearchStrategy::Exact => self.run_with(&ExactAStar, initial, keep_explored),
            SearchStrategy::Beam { width } => {
                self.run_with(&BeamSearch { width }, initial, keep_explored)
            }
            SearchStrategy::Anytime { weight, decay } => self.run_with(
                &AnytimeWeightedAStar { weight, decay },
                initial,
                keep_explored,
            ),
            SearchStrategy::Pea => self.run_with(&PartialExpansionAStar, initial, keep_explored),
        };
        if span.recording() {
            let s = &outcome.stats;
            span.attr_str("strategy", self.config.strategy.to_string());
            span.attr_u64("expanded", s.expanded);
            span.attr_u64("generated", s.generated);
            span.attr_u64("interned", s.interned);
            span.attr_u64("incumbents", s.incumbents);
            span.attr_u64("pruned", s.pruned);
            span.attr_u64("reexpansions", s.reexpansions);
            span.attr_u64("deferred", s.deferred);
            span.attr_f64("bound", s.bound);
            span.attr_bool("optimal", s.optimal);
            span.attr_bool("limit_hit", s.limit_hit);
        }
        wisedb_obs::counter_add("wisedb_search_solves_total", 1);
        wisedb_obs::counter_add("wisedb_search_expanded_total", outcome.stats.expanded);
        wisedb_obs::counter_add(
            "wisedb_search_reexpansions_total",
            outcome.stats.reexpansions,
        );
        (outcome, explored)
    }

    /// Runs an explicit (possibly external) strategy implementation from
    /// `initial` — the pluggable entry point the enum dispatch builds on.
    pub fn run_with(
        &self,
        strategy: &dyn Strategy,
        initial: SearchState,
        keep_explored: bool,
    ) -> (SearchOutcome, ExploredStates) {
        if initial.is_goal() {
            // Nothing to schedule: the empty path is trivially optimal.
            let stats = SearchStats {
                optimal: true,
                bound: 1.0,
                ..SearchStats::default()
            };
            return (
                SearchOutcome {
                    steps: Vec::new(),
                    cost: Money::ZERO,
                    stats,
                },
                ExploredStates::default(),
            );
        }
        let cx = SearchCx::new(
            self.spec,
            self.goal,
            &self.config,
            &self.table,
            self.memo,
            self.canonical.as_ref(),
        );
        strategy.search(&cx, initial, keep_explored)
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

/// Convenience: builds a template-id workload and solves it with the
/// default (exact) configuration.
pub fn solve_counts(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    counts: &[u32],
) -> CoreResult<OptimalSchedule> {
    let workload = Workload::from_counts(counts);
    Solver::new(spec, goal).solve(&workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parses_and_round_trips() {
        for (text, expected) in [
            ("exact", SearchStrategy::Exact),
            ("pea", SearchStrategy::Pea),
            ("pea*", SearchStrategy::Pea),
            ("peastar", SearchStrategy::Pea),
            ("beam", SearchStrategy::beam()),
            ("beam:64", SearchStrategy::Beam { width: 64 }),
            ("anytime", SearchStrategy::anytime()),
            (
                "anytime:2.0",
                SearchStrategy::Anytime {
                    weight: 2.0,
                    decay: SearchStrategy::DEFAULT_ANYTIME_DECAY,
                },
            ),
            (
                "anytime:1.25:0.75",
                SearchStrategy::Anytime {
                    weight: 1.25,
                    decay: 0.75,
                },
            ),
        ] {
            let parsed: SearchStrategy = text.parse().unwrap();
            assert_eq!(parsed, expected, "{text}");
            // Display output parses back to the same strategy.
            let redisplayed: SearchStrategy = parsed.to_string().parse().unwrap();
            assert_eq!(redisplayed, parsed, "{text}");
        }
        for bad in [
            "",
            "beam:0",
            "beam:x",
            "anytime:0.5",
            "anytime:1.5:2",
            "pea:1",
            "foo",
        ] {
            assert!(bad.parse::<SearchStrategy>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn search_config_serde_round_trip() {
        for strategy in [
            SearchStrategy::Exact,
            SearchStrategy::Pea,
            SearchStrategy::Beam { width: 17 },
            SearchStrategy::Anytime {
                weight: 1.5,
                decay: 0.25,
            },
        ] {
            let config = SearchConfig {
                node_limit: 12_345,
                strategy,
                time_limit_ms: Some(250),
            };
            let json = serde_json::to_string(&config).unwrap();
            let back: SearchConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, config);
        }
        // Legacy payloads without the new fields default to exact.
        let legacy: SearchConfig = serde_json::from_str(r#"{"node_limit": 7}"#).unwrap();
        assert_eq!(legacy.node_limit, 7);
        assert_eq!(legacy.strategy, SearchStrategy::Exact);
        assert_eq!(legacy.time_limit_ms, None);
    }

    #[test]
    fn default_stats_report_no_proof() {
        let stats = SearchStats::default();
        assert!(!stats.optimal);
        assert!(!stats.limit_hit);
        assert!(stats.bound.is_infinite());
    }
}
