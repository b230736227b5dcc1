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
//! Every A* solve in a training run consults one **frozen snapshot** of the
//! cache's heuristic memo, taken when the run starts. Solves are pure
//! functions of `(spec, goal, search config, signature, consulted memo)`,
//! so results are bit-identical regardless of thread count, solve order, or
//! how entries were later evicted — and a cold run (fresh cache, empty
//! snapshot) is byte-identical to the historical uncached pipeline, which
//! always started each sample's searcher empty. New explored g-values are
//! folded into the shared memo max-wise in first-occurrence sample order
//! under the cache lock, so the *next* run's snapshot is deterministic too.
//!
//! ## Memo admissibility across workloads
//!
//! A provably-optimal solve of cost `f*` yields `h'(v) = f* − g(v)` for
//! every settled vertex `v` (adaptive A*, §5). A [`StateKey`] fully
//! determines the remaining subproblem — unassigned template counts, open-VM
//! summary, penalty digest — independent of which sample workload reached
//! it, and `f* ≤ g(v) + h*(v)` for any vertex on or off the optimal path,
//! so `h'(v) ≤ h*(v)`: the memoized value is an admissible lower bound for
//! **any** training sample that reaches the same vertex, not just the one
//! that recorded it. Entries are recorded only from optimal solves of
//! monotone goals, mirroring
//! [`AdaptiveSearcher::solve`](wisedb_search::AdaptiveSearcher)'s rule.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use wisedb_core::{GoalHandle, PerformanceGoal, SpecHandle, WorkloadSpec};
use wisedb_learn::FeatureSchema;
use wisedb_search::{ExploredStates, HeuristicMemo, OptimalSchedule, SearchConfig, SearchStats};

/// A sample workload's canonical identity: its per-template query counts.
pub type Signature = Vec<u32>;

/// Default [`SolveCache`] capacity (distinct signatures) when
/// [`ModelConfig::cache_capacity`](crate::model::ModelConfig::cache_capacity)
/// is left at `0`.
pub const DEFAULT_CACHE_CAPACITY: usize = 8192;

/// Capacity bound of the shared heuristic memo. Existing vertices may
/// always be raised; new vertices are dropped once the memo is full (a
/// heuristic that is missing entries is merely weaker, never wrong).
const MEMO_CAPACITY: usize = 1 << 18;

/// Everything memoized about one signature's optimal solve. The rows are
/// already feature-extracted, so a cache hit skips both the A* search and
/// the per-step feature extraction.
#[derive(Debug, Clone)]
pub struct SolvedEntry {
    /// Feature vectors, one per decision along the optimal path.
    pub rows: Vec<Vec<f64>>,
    /// The decision label taken at each row.
    pub labels: Vec<usize>,
    /// `cost(R, g)` of the solve, in dollars.
    pub cost_dollars: f64,
    /// The solve's search counters.
    pub stats: SearchStats,
    /// The g-values of every settled vertex, for warming per-sample
    /// adaptive searchers and the shared memo.
    pub explored: ExploredStates,
    /// Whether this solve may seed reuse memos: the goal was monotone and
    /// the result provably optimal (Lemma 5.1's premises).
    pub seeds_memo: bool,
}

impl SolvedEntry {
    /// Extracts a cacheable entry from one solve. Pure in
    /// `(spec, goal, schema, solve)` — duplicates of the same signature
    /// always produce identical entries.
    pub fn from_solve(
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
        SolvedEntry {
            rows,
            labels,
            cost_dollars: solved.cost.as_dollars(),
            stats: solved.stats,
            explored,
            seeds_memo: goal.is_monotone() && solved.stats.optimal,
        }
    }

    /// The adaptive-searcher memo this solve would have produced had it run
    /// uncached: `h = f* − g` for every settled vertex with positive
    /// cost-to-go, empty unless [`SolvedEntry::seeds_memo`].
    pub fn searcher_memo(&self) -> HeuristicMemo {
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

/// What one training run was promised under the cache lock: a frozen memo
/// snapshot, a per-sample resolution, and the distinct signatures this run
/// must solve itself (in first-occurrence sample order).
pub(crate) struct RunPlan {
    /// The memo snapshot every solve of this run consults.
    pub frozen: Arc<HeuristicMemo>,
    /// One resolution per sample, in sample order.
    pub lookups: Vec<Lookup>,
    /// Signatures absent from the cache, deduplicated, in first-occurrence
    /// sample order. `Lookup::Missing(i)` indexes into this list.
    pub missing: Vec<Signature>,
}

/// How one sample resolves against the cache.
pub(crate) enum Lookup {
    /// Served by an entry cached in an earlier run (or an earlier commit).
    Hit(Arc<SolvedEntry>),
    /// Shares the `i`-th missing signature's solve (first occurrence and
    /// within-run duplicates alike).
    Missing(usize),
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
    /// The shared cross-run heuristic memo (capped; see the module docs'
    /// admissibility argument). Runs hold it by `Arc` as their frozen
    /// snapshot; a commit copies it only if some run still does.
    memo: Arc<HeuristicMemo>,
    fingerprint: Fingerprint,
    hits: u64,
    solves: u64,
}

/// A capacity-bounded, thread-safe map from sample [`Signature`]s to their
/// memoized optimal solves, plus the shared cross-run heuristic memo. One
/// cache serves one `(spec, goal, search config)` triple; see the module
/// docs for the determinism and admissibility contracts.
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
                memo: Arc::default(),
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

    /// Vertices in the shared heuristic memo.
    pub fn memo_len(&self) -> usize {
        self.inner.lock().unwrap().memo.len()
    }

    /// Lifetime `(cache hits, A* solves)` across every run served by this
    /// cache.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.hits, inner.solves)
    }

    /// Resolves a run's samples against the cache under one lock: classify
    /// every signature, snapshot the memo, and promise the missing
    /// signatures (in first-occurrence order) to the caller to solve.
    ///
    /// The snapshot shares the memo (an `Arc` bump); whoever commits while
    /// a snapshot is still held pays for the copy, so a run should drop its
    /// [`RunPlan::frozen`] before committing.
    pub(crate) fn plan(&self, sigs: Vec<Signature>) -> RunPlan {
        let inner = self.inner.lock().unwrap();
        let mut missing: Vec<Signature> = Vec::new();
        let mut missing_index: HashMap<Signature, usize> = HashMap::new();
        let lookups = sigs
            .into_iter()
            .map(|sig| {
                if let Some(entry) = inner.entries.get(&sig) {
                    Lookup::Hit(Arc::clone(entry))
                } else if let Some(&i) = missing_index.get(&sig) {
                    Lookup::Missing(i)
                } else {
                    let i = missing.len();
                    missing_index.insert(sig.clone(), i);
                    missing.push(sig);
                    Lookup::Missing(i)
                }
            })
            .collect();
        RunPlan {
            frozen: Arc::clone(&inner.memo),
            lookups,
            missing,
        }
    }

    /// Commits a run's freshly solved entries (parallel to the `missing`
    /// list of the [`RunPlan`]) and its hit count. Insertion, FIFO
    /// eviction, and memo merging all happen in first-occurrence sample
    /// order under the lock, so the cache's next state is deterministic.
    /// Eviction never invalidates the current run: callers hold `Arc`s to
    /// every entry they were promised.
    pub(crate) fn commit(&self, missing: Vec<Signature>, solved: Vec<Arc<SolvedEntry>>, hits: u64) {
        debug_assert_eq!(missing.len(), solved.len());
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.hits += hits;
        inner.solves += solved.len() as u64;
        for (sig, entry) in missing.into_iter().zip(solved) {
            if entry.seeds_memo {
                let memo = Arc::make_mut(&mut inner.memo);
                for (key, g) in entry.explored.iter() {
                    let h = entry.cost_dollars - g;
                    if h > 0.0 {
                        memo.raise_capped(key, h, MEMO_CAPACITY);
                    }
                }
            }
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
            .field("memo", &inner.memo.len())
            .field("hits", &inner.hits)
            .field("solves", &inner.solves)
            .finish()
    }
}

/// A cheap-to-clone handle to the warm-training state extracted from a
/// previous run's [`TrainingArtifacts`](crate::model::TrainingArtifacts):
/// the solve cache (and with it the shared heuristic memo). `Send`-able to
/// a background trainer thread;
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
