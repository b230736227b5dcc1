//! Warm-path training: the canonical solve cache behind
//! [`ModelGenerator::retrain_from`](crate::model::ModelGenerator::retrain_from).
//!
//! Training (§4) draws `N` small random workloads from the template set and
//! A*-solves each one — by far the dominant cost of a retrain. But a sample
//! workload's optimal *decision path* depends only on its template
//! **multiset** (the search's initial vertex is built from template counts;
//! query ids are replayed onto the path afterwards), so isomorphic samples
//! recur constantly: within one `train` call at small `m`, and across the
//! successive retrains a drift loop performs. [`SolveCache`] canonicalizes
//! each sample to its template-count **signature** and memoizes
//! `signature → (extracted training rows, solve stats, explored g-values)`,
//! so a duplicate sample — in this call or any later one — costs a hash
//! lookup instead of a search.
//!
//! ## Determinism
//!
//! Every A* solve starts from an empty heuristic memo, so a solve is a
//! pure function of `(spec, goal, search config, signature)`. Results are
//! bit-identical regardless of thread count, solve order, or which entries
//! an earlier run left in the cache, and a warm retrain of any seed builds
//! the same tree as a cold train of that seed. Entries are inserted (and
//! evicted) in first-occurrence sample order under the cache lock, so the
//! cache's next state is deterministic too.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use wisedb_core::{GoalHandle, PerformanceGoal, SpecHandle, WorkloadSpec};
use wisedb_learn::FeatureSchema;
use wisedb_search::{ExploredStates, HeuristicMemo, OptimalSchedule, SearchConfig, SearchStats};

/// A sample workload's canonical identity: its per-template query counts.
pub(crate) type Signature = Vec<u32>;

/// Default [`SolveCache`] capacity (distinct signatures) when
/// [`ModelConfig::cache_capacity`](crate::model::ModelConfig::cache_capacity)
/// is left at `0`.
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 8192;

/// Everything memoized about one signature's optimal solve. The rows are
/// already feature-extracted, so a cache hit skips both the A* search and
/// the per-step feature extraction.
#[derive(Debug, Clone)]
pub(crate) struct SolvedEntry {
    /// Feature vectors, one per decision along the optimal path.
    pub rows: Vec<Vec<f64>>,
    /// The decision label taken at each row.
    pub labels: Vec<usize>,
    /// `cost(R, g)` of the solve, in dollars.
    pub cost_dollars: f64,
    /// The solve's search counters.
    pub stats: SearchStats,
    /// The g-values of every settled vertex, for warming the adaptive
    /// searcher of a tightened retrain (§5). Empty unless
    /// [`seeds_memo`](Self::seeds_memo): no memo reads them otherwise.
    pub explored: ExploredStates,
    /// Whether this solve may seed reuse memos: the goal was monotone and
    /// the result provably optimal (Lemma 5.1's premises).
    pub seeds_memo: bool,
}

impl SolvedEntry {
    /// Extracts a cacheable entry from one solve, keeping `explored` only
    /// when the solve may seed memos. Pure in `(spec, goal, schema,
    /// solve)` — duplicates of the same signature always produce identical
    /// entries.
    pub(crate) fn from_solve(
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        schema: &FeatureSchema,
        solved: &OptimalSchedule,
        explored: ExploredStates,
    ) -> Self {
        let mut rows = Vec::with_capacity(solved.steps.len());
        let mut labels = Vec::with_capacity(solved.steps.len());
        for step in &solved.steps {
            rows.push(schema.extract(spec, goal, &step.state));
            labels.push(step.decision.label(schema.num_templates));
        }
        let seeds_memo = goal.is_monotone() && solved.stats.optimal;
        SolvedEntry {
            rows,
            labels,
            cost_dollars: solved.cost.as_dollars(),
            stats: solved.stats,
            explored: if seeds_memo {
                explored
            } else {
                ExploredStates::default()
            },
            seeds_memo,
        }
    }

    /// The adaptive-searcher memo this solve would have produced had it run
    /// uncached: `h = f* − g` for every settled vertex with positive
    /// cost-to-go, empty unless [`SolvedEntry::seeds_memo`].
    pub(crate) fn searcher_memo(&self) -> HeuristicMemo {
        let mut memo = HeuristicMemo::new();
        if self.seeds_memo {
            for (key, g) in self.explored.iter() {
                let h = self.cost_dollars - g;
                if h > 0.0 {
                    memo.raise(key, h);
                }
            }
        }
        memo
    }
}

/// What the cache was built for; a warm start is only sound against the
/// identical search problem.
struct Fingerprint {
    spec: SpecHandle,
    goal: GoalHandle,
    search: SearchConfig,
}

struct CacheInner {
    entries: HashMap<Signature, Arc<SolvedEntry>>,
    /// Insertion order, for deterministic FIFO eviction.
    order: VecDeque<Signature>,
    capacity: usize,
    fingerprint: Fingerprint,
    hits: u64,
    solves: u64,
}

/// A capacity-bounded, thread-safe map from sample signatures (per-template
/// query counts) to their memoized optimal solves. One cache serves one
/// `(spec, goal, search config)` triple; see the module docs for the
/// determinism contract.
pub struct SolveCache {
    inner: Mutex<CacheInner>,
}

impl SolveCache {
    /// An empty cache for the given search problem. `capacity` is clamped
    /// to at least 1 distinct signature.
    pub fn new(spec: SpecHandle, goal: GoalHandle, search: SearchConfig, capacity: usize) -> Self {
        SolveCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
                fingerprint: Fingerprint { spec, goal, search },
                hits: 0,
                solves: 0,
            }),
        }
    }

    /// Whether this cache was built for exactly this search problem.
    pub fn matches(
        &self,
        spec: &SpecHandle,
        goal: &PerformanceGoal,
        search: &SearchConfig,
    ) -> bool {
        let inner = self.inner.lock().unwrap();
        let fp = &inner.fingerprint;
        *fp.spec == **spec && *fp.goal == *goal && fp.search == *search
    }

    /// Distinct signatures currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// `true` iff no signature is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound (distinct signatures).
    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().capacity
    }

    /// Lifetime `(cache hits, A* solves)` across every run served by this
    /// cache.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.hits, inner.solves)
    }

    /// Looks up a run's distinct signatures under one lock: the cached
    /// entry for each hit, `None` for each signature the caller must solve.
    pub(crate) fn lookup(&self, sigs: &[Signature]) -> Vec<Option<Arc<SolvedEntry>>> {
        let inner = self.inner.lock().unwrap();
        sigs.iter()
            .map(|sig| inner.entries.get(sig).map(Arc::clone))
            .collect()
    }

    /// Commits a run's freshly solved `(signature, entry)` pairs and its hit
    /// count. Insertion and FIFO eviction happen in the order given (the
    /// run's first-occurrence sample order) under the lock, so the cache's
    /// next state is deterministic. Eviction never invalidates the current
    /// run: callers hold `Arc`s to every entry they use.
    pub(crate) fn commit(&self, solved: Vec<(Signature, Arc<SolvedEntry>)>, hits: u64) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.hits += hits;
        inner.solves += solved.len() as u64;
        for (sig, entry) in solved {
            while inner.entries.len() >= inner.capacity {
                let Some(evict) = inner.order.pop_front() else {
                    break;
                };
                inner.entries.remove(&evict);
            }
            if inner.entries.insert(sig.clone(), entry).is_none() {
                inner.order.push_back(sig);
            }
        }
    }
}

impl std::fmt::Debug for SolveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("SolveCache")
            .field("entries", &inner.entries.len())
            .field("capacity", &inner.capacity)
            .field("hits", &inner.hits)
            .field("solves", &inner.solves)
            .finish()
    }
}

/// A cheap-to-clone handle to the warm-training state extracted from a
/// previous run's [`TrainingArtifacts`](crate::model::TrainingArtifacts):
/// the solve cache. `Send`-able to a background trainer thread;
/// [`ModelGenerator::retrain_from`](crate::model::ModelGenerator::retrain_from)
/// consumes one.
#[derive(Debug, Clone)]
pub struct WarmStart {
    cache: Arc<SolveCache>,
}

impl WarmStart {
    /// Wraps a shared cache.
    pub(crate) fn new(cache: Arc<SolveCache>) -> Self {
        WarmStart { cache }
    }

    /// The shared solve cache.
    pub fn cache(&self) -> &Arc<SolveCache> {
        &self.cache
    }
}
