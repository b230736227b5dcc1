//! Non-preemptive online scheduling (§6.3).
//!
//! Online scheduling is a chain of batch problems: when query `q` arrives at
//! time `t`, every query that has *not started executing* is rescheduled
//! together with `q`. Two wrinkles distinguish it from a fresh batch:
//!
//! 1. **Waited queries age.** A query that arrived at `t_y` has already
//!    waited `t − t_y`; scheduling treats it as a "new" template whose
//!    latency is inflated by that wait, so deadline math stays correct
//!    (§6.3's augmented template set).
//! 2. **The open VM.** The most recently provisioned VM may still be busy;
//!    the plan starts from a vertex whose `wait-time` reflects that backlog
//!    (the paper's Figure 8 walk-through: `q₂` is placed right behind the
//!    running `q₁`).
//!
//! Retraining a model on every arrival is expensive, so the two §6.3.1
//! optimizations apply:
//!
//! * **Reuse** — models are cached by the batch's quantized age signature
//!   (the ω mapping): two batches whose waits agree within the latency
//!   predictor's error share a model.
//! * **Shift** — for linearly shiftable goals (max, per-query), a batch that
//!   waited ω is scheduled by the *base* model's goal tightened by ω,
//!   derived via adaptive retraining (§5) instead of training from scratch.
//!   Mixed-age batches use the oldest wait, a conservative tightening.
//!
//! This module only plans: [`OnlineScheduler::plan_arrivals`] turns one
//! batch and a [`ClusterView`] into [`PlannedStep`]s and counts its model
//! work in [`OnlineScheduler::counters`]. The caller owns the cluster; in
//! this workspace that is `wisedb-runtime`'s `WorkloadService` over the
//! simulator's `LiveCluster`.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use wisedb_core::{
    CoreResult, GoalHandle, Millis, OpenVmView, PerformanceGoal, QueryId, QueryTemplate,
    SpecHandle, TemplateId, VmTypeId, WorkloadSpec,
};
use wisedb_search::{Decision, LastVm, SearchConfig, SearchState, Solver};

use crate::batch::plan_with_tree;
use crate::model::{DecisionModel, ModelConfig, ModelGenerator, TrainingArtifacts};
use crate::multi::Siblings;

/// Which planner schedules each online batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Planner {
    /// The learned decision-tree model (WiSeDB proper).
    Model,
    /// A* on each batch — the "optimal scheduler" comparator of Figure 18.
    Optimal,
}

/// Online scheduling configuration.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Enable the model-reuse cache (ω mapping).
    pub reuse: bool,
    /// Enable linear shifting for shiftable goals.
    pub shift: bool,
    /// Who plans each batch.
    pub planner: Planner,
    /// Training configuration for the base model and any retraining.
    pub training: ModelConfig,
    /// Age quantization: waits within one quantum share a model (the paper
    /// ties this to the latency predictor's error).
    pub age_quantum: Millis,
    /// A* limits for [`Planner::Optimal`].
    pub oracle_search: SearchConfig,
    /// Capacity of each model/view cache (Reuse, Shift, augmented views),
    /// in entries; the least-recently-used entry is evicted beyond it.
    /// `0` means unbounded — the pre-eviction behaviour, which leaks: the
    /// key space (distinct sorted aged (template, bucket) sets) is
    /// combinatorial, so a long-lived service at a fine
    /// [`age_quantum`](Self::age_quantum) accumulates one model per ageing
    /// pattern forever.
    pub cache_capacity: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            reuse: true,
            shift: true,
            planner: Planner::Model,
            training: ModelConfig::fast(),
            age_quantum: Millis::from_millis(250),
            oracle_search: SearchConfig {
                node_limit: 200_000,
                ..SearchConfig::default()
            },
            // Large enough that goal-scale workloads (tens of distinct
            // ageing patterns) never evict — bounded is purely a leak
            // guard, not a behaviour change.
            cache_capacity: 512,
        }
    }
}

/// A small deterministic LRU map: `get` bumps recency, `insert` evicts the
/// least-recently-used entry once the map exceeds its capacity. Eviction
/// scans for the minimum logical timestamp — O(len), fine at the few-
/// hundred-entry capacities the online caches use — and is deterministic
/// (timestamps are unique), so cached-model behaviour replays exactly
/// across runs.
#[derive(Debug, Clone)]
struct LruCache<K, V> {
    map: HashMap<K, (u64, V)>,
    clock: u64,
    /// `0` = unbounded.
    capacity: usize,
}

impl<K: std::hash::Hash + Eq + Clone, V> LruCache<K, V> {
    fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            clock: 0,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Looks up and marks the entry as most recently used.
    fn get<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ?Sized,
    {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|(stamp, value)| {
            *stamp = clock;
            value
        })
    }

    /// The cached values, in no particular order.
    fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(_, value)| value)
    }

    /// Looks up without touching recency (no `&mut` borrow of the map's
    /// values — what the planner uses after a `get`/`insert` settled
    /// recency, so the returned reference can outlive later shared reads).
    fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|(_, value)| value)
    }

    /// Inserts as most recently used, evicting the LRU entry if full.
    fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        self.map.insert(key, (self.clock, value));
        if self.capacity > 0 && self.map.len() > self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
    }
}

/// An unstarted query awaiting (re)scheduling: the new arrival plus every
/// recalled tentative query form one batch (§6.3's augmented workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingArrival {
    /// Stream-assigned query id.
    pub id: QueryId,
    /// Base template (never an aged alias).
    pub template: TemplateId,
    /// Original arrival time.
    pub arrival: Millis,
}

/// What the planner needs to know about the cluster at scheduling time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterView {
    /// VMs rented so far (provisioning order count, including released).
    pub vms_rented: u32,
    /// The open VM, if one can still accept work.
    pub open_vm: Option<OpenVmView>,
}

/// One step of a batch plan. Steps apply **in order**: assignments target
/// the open VM until the first [`PlannedStep::Provision`], then the most
/// recently provisioned VM (the scheduling graph's "last VM" semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedStep {
    /// Rent a new VM of this type; it becomes the assignment target.
    Provision(VmTypeId),
    /// Queue this pending query on the current target VM.
    Assign {
        /// The query being placed.
        query: QueryId,
        /// Its base template.
        template: TemplateId,
    },
}

/// Cumulative model work of a scheduler's
/// [`plan_arrivals`](OnlineScheduler::plan_arrivals) calls: the Figure 19
/// counters plus the oracle's budget stops (Figure 18's proof marks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineCounters {
    /// Full model retrainings: the Figure 19 "None" arm, or an aged batch
    /// missing the Reuse cache.
    pub retrains: usize,
    /// Batches served by a cached model (Reuse or Shift).
    pub cache_hits: usize,
    /// Shift-derived models built via adaptive retraining.
    pub shifts: usize,
    /// Shift models among [`shifts`](Self::shifts) that a sibling class
    /// of a [`MultiScheduler`](crate::MultiScheduler) had already built
    /// from the same inputs, taken instead of retrained.
    pub sibling_shifts: usize,
    /// Oracle batch plans ([`Planner::Optimal`]) that stopped on
    /// [`oracle_search`](OnlineConfig::oracle_search)'s expansion budget
    /// ([`SearchStats::limit_hit`](wisedb_search::SearchStats::limit_hit))
    /// and fell back to a best-found plan. Zero means every replan was
    /// proven optimal; always zero under [`Planner::Model`].
    pub oracle_limit_hits: usize,
}

/// An augmented scheduling view for a batch with waited queries: the base
/// spec extended with aged template variants and the goal extended to
/// match, both behind shared handles, plus the (base template, age bucket)
/// → scheduling-template mapping. Cached per aged-pair signature, so a
/// warm online loop builds it **once** per distinct ageing pattern instead
/// of deep-cloning the spec and goal on every aged arrival. Cloning a view
/// is three reference bumps.
#[derive(Debug, Clone)]
struct AugmentedView {
    spec: SpecHandle,
    goal: GoalHandle,
    /// (base template, bucket) → scheduling template id.
    map: Arc<HashMap<(u32, u64), TemplateId>>,
}

/// One aged-batch cache entry: the augmented view and, once the Reuse path
/// has trained it, the view's model.
type AgedEntry = (AugmentedView, Option<DecisionModel>);

/// The online scheduler: owns the base model, the ω-keyed model cache, and
/// the shift ladder.
pub struct OnlineScheduler {
    spec: SpecHandle,
    goal: GoalHandle,
    config: OnlineConfig,
    base: DecisionModel,
    generator: ModelGenerator,
    artifacts: TrainingArtifacts,
    /// Aged-batch cache: the batch's aged (template, age-bucket) pairs →
    /// its augmented spec/goal view and, on the Reuse path, the model
    /// trained on that view (the ω mapping). The model is a pure function
    /// of the augmented (spec, goal), which fresh templates do not affect,
    /// so batches differing only in fresh arrivals share one entry. The
    /// no-reuse and oracle aged paths cache only the view. LRU-bounded by
    /// [`OnlineConfig::cache_capacity`].
    aged_cache: LruCache<Vec<(u32, u64)>, AgedEntry>,
    /// Shift cache: ω bucket → model for the shifted goal (LRU-bounded).
    shift_cache: LruCache<u64, DecisionModel>,
    counters: OnlineCounters,
}

impl OnlineScheduler {
    /// Trains the base model and prepares the caches.
    pub fn train(
        spec: impl Into<SpecHandle>,
        goal: impl Into<GoalHandle>,
        config: OnlineConfig,
    ) -> CoreResult<Self> {
        let spec = spec.into();
        let goal = goal.into();
        let generator = ModelGenerator::new(spec.clone(), goal.clone(), config.training.clone());
        let (base, artifacts) = generator.train_with_artifacts()?;
        let capacity = config.cache_capacity;
        Ok(OnlineScheduler {
            spec,
            goal,
            config,
            base,
            generator,
            artifacts,
            aged_cache: LruCache::new(capacity),
            shift_cache: LruCache::new(capacity),
            counters: OnlineCounters::default(),
        })
    }

    /// Wraps an existing base model (e.g. the one trained for batch use).
    pub fn with_model(
        base: DecisionModel,
        artifacts: TrainingArtifacts,
        config: OnlineConfig,
    ) -> Self {
        let spec = base.spec_handle().clone();
        let goal = base.goal_handle().clone();
        let generator = ModelGenerator::new(spec.clone(), goal.clone(), config.training.clone());
        let capacity = config.cache_capacity;
        OnlineScheduler {
            spec,
            goal,
            config,
            base,
            generator,
            artifacts,
            aged_cache: LruCache::new(capacity),
            shift_cache: LruCache::new(capacity),
            counters: OnlineCounters::default(),
        }
    }

    /// The base model.
    pub fn base_model(&self) -> &DecisionModel {
        &self.base
    }

    /// A handle to the solve cache the base model was trained through.
    /// Hand it to [`ModelGenerator::retrain_from`] (e.g. on a background
    /// trainer thread) so a model refresh skips every sample signature
    /// already solved for this scheduler.
    pub fn warm_start(&self) -> crate::warm::WarmStart {
        self.artifacts.warm_start()
    }

    /// Current cache sizes: (Reuse models, Shift models, augmented views).
    /// A Reuse model shares its entry with its view, so the first count
    /// never exceeds the third; each cache is held at
    /// [`OnlineConfig::cache_capacity`] by LRU eviction.
    pub fn cache_sizes(&self) -> (usize, usize, usize) {
        let reuse = self
            .aged_cache
            .values()
            .filter(|(_, model)| model.is_some())
            .count();
        (reuse, self.shift_cache.len(), self.aged_cache.len())
    }

    /// The model work of every [`plan_arrivals`](Self::plan_arrivals)
    /// call since this scheduler was built (a hot model swap builds a new
    /// one, so its counters start from zero).
    pub fn counters(&self) -> OnlineCounters {
        self.counters
    }

    /// Whether `other` starts the same Shift ladder as this scheduler:
    /// untightened artifacts of equal training runs and an equal generator
    /// (spec, goal and training configuration), so equal ladder steps
    /// build equal models and memos on both.
    pub(crate) fn same_inputs(&self, other: &OnlineScheduler) -> bool {
        self.artifacts.same_untightened(&other.artifacts)
            && self.spec == other.spec
            && self.goal == other.goal
            && self.config.training == other.config.training
    }

    /// The artifacts the Shift ladder's next step starts from.
    pub(crate) fn artifacts(&self) -> &TrainingArtifacts {
        &self.artifacts
    }

    /// Plans one online batch against an externally owned cluster (§6.3):
    /// the incremental entry point the streaming runtime drives.
    ///
    /// `batch` is the new arrival plus every recalled unstarted query;
    /// `view` describes the cluster at `now` (the open VM seeds the initial
    /// search vertex). The returned steps apply in order — see
    /// [`PlannedStep`]. The model work each call does (retrains, cache
    /// hits, shifts, oracle budget stops) accumulates in
    /// [`counters`](Self::counters).
    pub fn plan_arrivals(
        &mut self,
        view: &ClusterView,
        batch: &[PendingArrival],
        now: Millis,
    ) -> CoreResult<Vec<PlannedStep>> {
        self.plan(view, batch, now, None)
    }

    /// [`plan_arrivals`](Self::plan_arrivals), with the Shift ladder steps
    /// of this scheduler's sibling classes, if it has any, to take from
    /// and to offer to.
    pub(crate) fn plan(
        &mut self,
        view: &ClusterView,
        batch: &[PendingArrival],
        now: Millis,
        siblings: Option<Siblings<'_>>,
    ) -> CoreResult<Vec<PlannedStep>> {
        let quantum = self.config.age_quantum.as_millis().max(1);
        let bucket_of = |q: &PendingArrival| age_bucket(now.saturating_sub(q.arrival), quantum);
        let max_bucket = batch.iter().map(bucket_of).max().unwrap_or(0);
        let all_fresh = max_bucket == 0;
        let shiftable = self.goal.is_linearly_shiftable();
        #[allow(unused_assignments)] // only the aged no-reuse arm assigns it
        let mut owned_model: Option<DecisionModel> = None;

        // -- Choose the scheduling view: (spec, goal, model, template map) --
        enum View<'m> {
            Base(&'m DecisionModel),
            Shifted(&'m DecisionModel),
            Aged {
                model: &'m DecisionModel,
                view: AugmentedView,
            },
        }

        let model_view = if all_fresh {
            View::Base(&self.base)
        } else if self.config.shift && shiftable && self.config.planner == Planner::Model {
            let shift = Millis::from_millis(max_bucket * quantum);
            if self.shift_cache.get(&max_bucket).is_some() {
                self.counters.cache_hits += 1;
            } else {
                let shifted_goal = self
                    .goal
                    .shift(shift)
                    .expect("shiftable goals always shift");
                let model = self.shift_step(&shifted_goal, siblings)?;
                self.shift_cache.insert(max_bucket, model);
                self.counters.shifts += 1;
            }
            View::Shifted(
                self.shift_cache
                    .peek(&max_bucket)
                    .expect("hit or just inserted"),
            )
        } else {
            // Aged-template path (with optional Reuse caching). The cache
            // keys on the batch's aged (template, bucket) pairs — one view
            // and at most one trained model per distinct ageing pattern; a
            // warm loop reaches here without touching the spec's latency
            // tables.
            let pairs = aged_pairs(batch, now, quantum);
            let view = self.augmented_view(&pairs, quantum)?;
            let model_ref: &DecisionModel = if self.config.planner == Planner::Optimal {
                // The oracle plans the augmented view with A* and reads no
                // model: the base model stands in, untouched.
                &self.base
            } else if self.config.reuse {
                // `augmented_view` just made this the most recent entry,
                // so looking it up again leaves the LRU order unchanged.
                let (_, cached) = self
                    .aged_cache
                    .get(pairs.as_slice())
                    .expect("augmented_view cached this key");
                if cached.is_some() {
                    self.counters.cache_hits += 1;
                } else {
                    let generator = ModelGenerator::new(
                        view.spec.clone(),
                        view.goal.clone(),
                        self.config.training.clone(),
                    );
                    *cached = Some(generator.train()?);
                    self.counters.retrains += 1;
                }
                cached.as_ref().expect("hit or just trained")
            } else {
                // Reuse disabled: pay for a fresh model every time (the
                // "None" arm of Figure 19).
                let generator = ModelGenerator::new(
                    view.spec.clone(),
                    view.goal.clone(),
                    self.config.training.clone(),
                );
                owned_model = Some(generator.train()?);
                self.counters.retrains += 1;
                owned_model.as_ref().expect("just assigned")
            };
            View::Aged {
                model: model_ref,
                view,
            }
        };

        let (sched_spec, sched_goal, model): (&WorkloadSpec, &PerformanceGoal, &DecisionModel) =
            match &model_view {
                View::Base(m) => (&self.spec, &self.goal, m),
                View::Shifted(m) => (&self.spec, m.goal(), m),
                View::Aged { model, view } => (&view.spec, &view.goal, model),
            };

        // Map each batch query to its scheduling-template id.
        let sched_template = |q: &PendingArrival| -> TemplateId {
            match &model_view {
                View::Base(_) | View::Shifted(_) => q.template,
                View::Aged { view, .. } => {
                    let bucket = bucket_of(q);
                    if bucket == 0 {
                        q.template
                    } else {
                        view.map[&(q.template.0, bucket)]
                    }
                }
            }
        };

        // -- Build the initial vertex: counts + the open VM (if any). --
        let mut counts = vec![0u32; sched_spec.num_templates()];
        let mut by_template: HashMap<TemplateId, Vec<PendingArrival>> = HashMap::new();
        for q in batch {
            let st = sched_template(q);
            counts[st.index()] += 1;
            by_template.entry(st).or_default().push(*q);
        }
        // FIFO by arrival within a template.
        for queue in by_template.values_mut() {
            queue.sort_by_key(|q| (q.arrival, q.id));
            queue.reverse(); // pop from the back
        }

        let mut state = SearchState::for_counts(&counts, sched_goal)?;
        if let Some(open) = &view.open_vm {
            state.last_vm = Some(LastVm::seeded(
                open.vm_type,
                open.running.clone(),
                open.backlog,
            ));
            state.vms_rented = view.vms_rented;
        }

        // -- Plan. --
        let decisions: Vec<Decision> = match self.config.planner {
            Planner::Model => {
                let tree_plan =
                    plan_with_tree(sched_spec, sched_goal, model.schema(), model.tree(), state);
                tree_plan.decisions.into_iter().map(|(d, _)| d).collect()
            }
            Planner::Optimal => {
                let plan = Solver::new(sched_spec, sched_goal)
                    .with_config(self.config.oracle_search.clone())
                    .plan_from(state)?;
                self.counters.oracle_limit_hits += plan.stats.limit_hit as usize;
                plan.decisions
            }
        };

        // -- Resolve decisions to concrete (query, VM) steps. --
        let steps = decisions
            .into_iter()
            .map(|d| match d {
                Decision::CreateVm(v) => PlannedStep::Provision(v),
                Decision::Place(st) => {
                    let q = by_template
                        .get_mut(&st)
                        .and_then(|v| v.pop())
                        .expect("plan places exactly the batch's queries");
                    PlannedStep::Assign {
                        query: q.id,
                        template: q.template,
                    }
                }
            })
            .collect();
        Ok(steps)
    }

    /// The model for the Shift ladder's next step, `goal`: a sibling's if
    /// one built it from this scheduler's ladder state, else retrained
    /// here (§5) and offered to the siblings. Either way the artifacts
    /// move to the step's state.
    fn shift_step(
        &mut self,
        goal: &PerformanceGoal,
        siblings: Option<Siblings<'_>>,
    ) -> CoreResult<DecisionModel> {
        let Some(mut siblings) = siblings else {
            return self.generator.retrain_tightened(goal, &mut self.artifacts);
        };
        if let Some((model, artifacts)) = siblings.take(goal) {
            self.artifacts.adopt(artifacts);
            self.counters.sibling_shifts += 1;
            return Ok(model);
        }
        let model = self
            .generator
            .retrain_tightened(goal, &mut self.artifacts)?;
        siblings.offer(goal, &model, &self.artifacts);
        Ok(model)
    }

    /// The augmented scheduling view for a batch with waited queries: one
    /// extra template per (base template, age bucket > 0), its latency
    /// inflated by the (quantized) wait so queue math includes time already
    /// spent waiting. Per-query goals give the aged variant its base
    /// template's deadline; other goals are template-free.
    ///
    /// Views are pure functions of the batch's aged (template, bucket)
    /// pairs, so they are cached: a repeated ageing pattern returns the
    /// shared handles without cloning the spec or goal. A new view enters
    /// the cache without a model.
    fn augmented_view(&mut self, pairs: &[(u32, u64)], quantum: u64) -> CoreResult<AugmentedView> {
        if let Some((view, _)) = self.aged_cache.get(pairs) {
            return Ok(view.clone());
        }

        let mut spec = (*self.spec).clone();
        let mut goal = (*self.goal).clone();
        let mut map: HashMap<(u32, u64), TemplateId> = HashMap::new();
        for &(base_t, bucket) in pairs {
            let base = self.spec.template(TemplateId(base_t))?;
            let wait = Millis::from_millis(bucket * quantum);
            let aged = QueryTemplate {
                name: format!("{}+{}", base.name, wait),
                latencies: base.latencies.iter().map(|l| l.map(|l| l + wait)).collect(),
            };
            let id = TemplateId(spec.num_templates() as u32);
            spec = spec.with_extra_template(aged)?;
            if let PerformanceGoal::PerQuery { deadlines, .. } = &*self.goal {
                goal = goal.with_extra_deadline(deadlines[base_t as usize]);
            }
            map.insert((base_t, bucket), id);
        }
        let view = AugmentedView {
            spec: SpecHandle::new(spec),
            goal: GoalHandle::new(goal),
            map: Arc::new(map),
        };
        self.aged_cache.insert(pairs.to_vec(), (view.clone(), None));
        Ok(view)
    }
}

/// The ω quantization: which age bucket a wait of `age` falls in
/// (rounded to the nearest multiple of `quantum`). The single source of
/// truth — the augmented-view map is indexed by buckets produced here.
fn age_bucket(age: Millis, quantum: u64) -> u64 {
    (age.as_millis() + quantum / 2) / quantum
}

/// The batch's distinct aged (template, age-bucket) pairs, sorted — the
/// key of the aged-batch cache (augmented views and Reuse models).
fn aged_pairs(batch: &[PendingArrival], now: Millis, quantum: u64) -> Vec<(u32, u64)> {
    let mut pairs: Vec<(u32, u64)> = batch
        .iter()
        .filter_map(|q| {
            let bucket = age_bucket(now.saturating_sub(q.arrival), quantum);
            (bucket > 0).then_some((q.template.0, bucket))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_cache_bounds_and_recency() {
        let mut lru: LruCache<u64, u64> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.len(), 2);
        // Touch 1 so 2 becomes the LRU entry, then overflow.
        assert_eq!(lru.get(&1), Some(&mut 10));
        lru.insert(3, 30);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.peek(&2), None, "LRU entry evicted");
        assert_eq!(lru.peek(&1), Some(&10));
        assert_eq!(lru.peek(&3), Some(&30));
        // Capacity 0 = unbounded.
        let mut open: LruCache<u64, u64> = LruCache::new(0);
        for i in 0..100 {
            open.insert(i, i);
        }
        assert_eq!(open.len(), 100);
    }
}
