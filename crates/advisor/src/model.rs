//! Decision-model generation (§4): sample → solve → extract → learn.
//!
//! The [`ModelGenerator`] draws `N` uniform sample workloads of `m` queries
//! (§4.2), computes each one's optimal schedule on the scheduling graph
//! (§4.3), extracts `(features, decision)` pairs from the optimal paths
//! (§4.4), and trains the decision-tree strategy (§4.5). The resulting
//! [`DecisionModel`] is the artifact applications keep: it schedules any
//! number of future batches without further search.
//!
//! Every kind of training runs one pipeline. The samples are reduced to
//! their distinct template-count signatures (see [`crate::warm`]), each
//! signature is solved at most once on [`ModelConfig::threads`] workers,
//! and the rows are assembled in sample order, a duplicate sample
//! repeating its signature's rows. A cold or warm train
//! ([`ModelGenerator::train_with_artifacts`],
//! [`ModelGenerator::retrain_from`]) solves only the signatures its
//! [`SolveCache`] lacks. A tightened retrain
//! ([`ModelGenerator::retrain_tightened`], §5) re-solves every signature
//! with that signature's adaptive searcher, kept in the
//! [`TrainingArtifacts`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use wisedb_core::{
    CoreResult, GoalHandle, GoalKind, PerformanceGoal, Schedule, SpecHandle, TemplateId, Workload,
    WorkloadSpec,
};
use wisedb_learn::{Dataset, DecisionTree, FeatureSchema, TreeParams};
use wisedb_search::{AdaptiveSearcher, ExploredStates, SearchConfig, SearchStrategy, Solver};

use crate::batch::{self, BatchPlan};
use crate::warm::{Signature, SolveCache, SolvedEntry, WarmStart, DEFAULT_CACHE_CAPACITY};

/// Training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Number of sample workloads `N` (paper default: 3000).
    pub num_samples: usize,
    /// Queries per sample `m` (paper default: 18).
    pub sample_size: usize,
    /// RNG seed for workload sampling.
    pub seed: u64,
    /// Decision-tree induction parameters.
    pub tree: TreeParams,
    /// Solver configuration for the training searches: the expansion
    /// budget **and** the [`SearchStrategy`] — training may safely use
    /// anytime solves (the learned model needs near-optimal decision
    /// paths, not proofs), while exact remains the default so committed
    /// models stay bit-identical. Serialized with the model config, so a
    /// persisted training setup records which solver produced it; absent
    /// fields default to the exact strategy. Percentile goals train with
    /// anytime where this says exact; see
    /// [`search_for`](ModelConfig::search_for).
    #[serde(default)]
    pub search: SearchConfig,
    /// Capacity of the per-generator [`SolveCache`] in distinct sample
    /// signatures (`0` means [`DEFAULT_CACHE_CAPACITY`]). Training
    /// canonicalizes every sample to its template multiset and memoizes the
    /// solve, so duplicate samples — within one `train` call or across the
    /// retrains a drift loop performs via
    /// [`ModelGenerator::retrain_from`] — never re-run A*. Serde-defaults
    /// to `0`, so persisted legacy configurations keep deserializing.
    #[serde(default)]
    pub cache_capacity: usize,
    /// Worker threads for the per-signature A* solves, which are
    /// embarrassingly parallel. `0` means one per available CPU core; `1`
    /// forces the serial path. Results are merged in signature order, so the
    /// trained model is **bit-identical** across thread counts for a fixed
    /// seed (asserted by tests).
    #[serde(skip, default)]
    pub threads: usize,
}

impl ModelConfig {
    /// The paper's training configuration: N = 3000 samples of m = 18.
    pub fn paper() -> Self {
        ModelConfig {
            num_samples: 3000,
            sample_size: 18,
            seed: 0x5EED_0001,
            tree: TreeParams::default(),
            search: SearchConfig::default(),
            cache_capacity: 0,
            threads: 0,
        }
    }

    /// A lighter configuration for tests, examples, and online retraining:
    /// fewer, smaller samples — trains in tens of milliseconds while
    /// retaining the qualitative behaviour.
    pub fn fast() -> Self {
        ModelConfig {
            num_samples: 150,
            sample_size: 9,
            seed: 0x5EED_0002,
            tree: TreeParams::default(),
            search: SearchConfig::default(),
            cache_capacity: 0,
            threads: 0,
        }
    }

    /// Overrides the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the solve-cache capacity (see
    /// [`cache_capacity`](ModelConfig::cache_capacity)).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the solver worker-pool size (see
    /// [`threads`](ModelConfig::threads)).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The search configuration the training solves for `goal` actually
    /// use: the configured one, except that a percentile goal under the
    /// exact strategy trains with anytime instead (same node budget,
    /// certified bound). Its exact searches blow any practical node budget,
    /// because the state space distinguishes every completion multiset.
    pub fn search_for(&self, goal: &PerformanceGoal) -> SearchConfig {
        let mut search = self.search.clone();
        if search.strategy == SearchStrategy::Exact && goal.kind() == GoalKind::Percentile {
            search.strategy = SearchStrategy::Anytime;
        }
        search
    }

    /// The effective solve-cache capacity (`0` resolves to the default).
    pub fn resolved_cache_capacity(&self) -> usize {
        if self.cache_capacity == 0 {
            DEFAULT_CACHE_CAPACITY
        } else {
            self.cache_capacity
        }
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig::paper()
    }
}

/// What training produced, beyond the tree itself.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingStats {
    /// Sample workloads solved.
    pub num_samples: usize,
    /// Training rows (one per optimal decision).
    pub num_rows: usize,
    /// Resubstitution accuracy of the tree on its training set.
    pub training_accuracy: f64,
    /// Tree height (the `h` in the `O(h·n)` scheduling bound).
    pub tree_depth: usize,
    /// Leaves in the tree.
    pub tree_leaves: usize,
    /// Total A* expansions across all samples.
    pub search_expanded: u64,
    /// Distinct A* solves this run actually performed (samples minus
    /// cache/dedup hits). Serde-defaults to `0` for legacy payloads.
    #[serde(default)]
    pub solves: u64,
    /// Samples served from the solve cache (earlier runs) or by within-run
    /// signature dedup. Serde-defaults to `0` for legacy payloads.
    #[serde(default)]
    pub cache_hits: u64,
    /// Solves among [`solves`](Self::solves) that exhausted the node
    /// budget and fell back to a best-found path
    /// ([`SearchStats::limit_hit`](wisedb_search::SearchStats::limit_hit)).
    /// Serde-defaults to `0` for legacy payloads.
    #[serde(default)]
    pub limit_hits: u64,
    /// Wall-clock training time in seconds.
    pub training_secs: f64,
}

/// A trained workload-management strategy for one (spec, goal) pair. The
/// spec and goal are held by shared handle, so cloning a model — or handing
/// its spec to the scheduler, cluster, and metrics layers — never copies
/// the latency tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionModel {
    spec: SpecHandle,
    goal: GoalHandle,
    schema: FeatureSchema,
    tree: DecisionTree,
    stats: TrainingStats,
}

impl DecisionModel {
    /// The workload specification the model was trained for.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// A shareable handle to the model's spec (an `Arc` bump to clone).
    pub fn spec_handle(&self) -> &SpecHandle {
        &self.spec
    }

    /// The performance goal the model was trained for.
    pub fn goal(&self) -> &PerformanceGoal {
        &self.goal
    }

    /// A shareable handle to the model's goal (an `Arc` bump to clone).
    pub fn goal_handle(&self) -> &GoalHandle {
        &self.goal
    }

    /// The underlying decision tree.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// The feature layout.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// Training statistics.
    pub fn stats(&self) -> &TrainingStats {
        &self.stats
    }

    /// Schedules a batch workload with the learned strategy (§6.2).
    pub fn schedule_batch(&self, workload: &Workload) -> CoreResult<Schedule> {
        Ok(self.schedule_batch_with_plan(workload)?.0)
    }

    /// Like [`schedule_batch`](Self::schedule_batch), also returning the
    /// decision provenance (model vs guard).
    pub fn schedule_batch_with_plan(
        &self,
        workload: &Workload,
    ) -> CoreResult<(Schedule, BatchPlan)> {
        batch::schedule_batch(&self.spec, &self.goal, &self.schema, &self.tree, workload)
    }

    /// Maps a query of unknown template to the known template with the
    /// closest reference latency (§6.2's rule for unseen queries).
    pub fn nearest_template(&self, predicted_latency: wisedb_core::Millis) -> TemplateId {
        let mut best = TemplateId(0);
        let mut best_diff = u64::MAX;
        for t in self.spec.template_ids() {
            let reference = self
                .spec
                .latency(t, wisedb_core::VmTypeId(0))
                .or_else(|| self.spec.template(t).ok().and_then(|q| q.min_latency()))
                .unwrap_or(wisedb_core::Millis::ZERO);
            let diff = reference
                .as_millis()
                .abs_diff(predicted_latency.as_millis());
            if diff < best_diff {
                best_diff = diff;
                best = t;
            }
        }
        best
    }

    /// Serializes the model to JSON (for persistence; the paper notes a
    /// trained model is a few-MB artifact reusable across workloads).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Restores a model serialized with [`to_json`](Self::to_json).
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }

    /// Renders the decision tree in the paper's Figure 6 vocabulary.
    pub fn render_tree(&self) -> String {
        let schema = self.schema;
        let nt = schema.num_templates;
        self.tree
            .render(&move |f| schema.feature_name(f), &move |l| {
                wisedb_search::Decision::from_label(l, nt).to_string()
            })
    }
}

/// Everything kept from training that adaptive re-training (§5) can reuse:
/// the distinct sample signatures with their solves, one adaptive searcher
/// per signature, and the solve cache the run was trained through. Cloning
/// copies the warmed search memos but *shares* the solve cache, so
/// independent consumers (e.g. several online schedulers over one base
/// model) each keep adapting cheaply while warm retrains keep deduplicating
/// against one signature store.
#[derive(Clone)]
pub struct TrainingArtifacts {
    /// Each sample's index into `signatures`, in sample order.
    of_sample: Vec<usize>,
    /// The distinct sample signatures, in first-occurrence order.
    signatures: Vec<Signature>,
    /// Each signature's solve from the training run.
    entries: Vec<Arc<SolvedEntry>>,
    /// One adaptive searcher per signature. Empty until the first
    /// tightened retrain builds them from `entries`: most artifacts never
    /// retrain, and the rebuilt memo is exactly the one the signature's own
    /// solve would have left behind.
    searchers: Vec<AdaptiveSearcher>,
    /// The solve cache this model was trained through.
    warm: WarmStart,
}

impl TrainingArtifacts {
    /// A handle to the solve cache this model was trained through; feed it
    /// to [`ModelGenerator::retrain_from`] to skip every already-solved
    /// sample signature.
    pub fn warm_start(&self) -> WarmStart {
        self.warm.clone()
    }
}

/// Trains [`DecisionModel`]s for a (spec, goal) pair.
pub struct ModelGenerator {
    spec: SpecHandle,
    goal: GoalHandle,
    config: ModelConfig,
}

impl ModelGenerator {
    /// Creates a generator. The goal is validated against the spec. Accepts
    /// an owned [`WorkloadSpec`]/[`PerformanceGoal`] or existing handles —
    /// handing in handles makes construction free of deep copies.
    pub fn new(
        spec: impl Into<SpecHandle>,
        goal: impl Into<GoalHandle>,
        config: ModelConfig,
    ) -> Self {
        ModelGenerator {
            spec: spec.into(),
            goal: goal.into(),
            config,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Draws the training sample workloads (uniform direct sampling, §4.2).
    pub fn sample_workloads(&self) -> Vec<Workload> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let nt = self.spec.num_templates() as u32;
        (0..self.config.num_samples)
            .map(|_| {
                Workload::from_templates(
                    (0..self.config.sample_size).map(|_| TemplateId(rng.gen_range(0..nt))),
                )
            })
            .collect()
    }

    /// Trains a model (discarding reuse artifacts).
    pub fn train(&self) -> CoreResult<DecisionModel> {
        Ok(self.train_with_artifacts()?.0)
    }

    /// Trains a model and returns the artifacts needed to re-train cheaply
    /// for stricter goals (strategy recommendation, online shifting) or
    /// for the same goal ([`retrain_from`](Self::retrain_from)).
    pub fn train_with_artifacts(&self) -> CoreResult<(DecisionModel, TrainingArtifacts)> {
        self.train_cached(self.fresh_cache())
    }

    /// Re-trains reusing a previous run's solve cache (§4 warm path): only
    /// sample signatures absent from the cache are A*-solved; everything
    /// else — within-run duplicates included — is served from the memoized
    /// entries. On an unchanged template mix the retrain performs **zero**
    /// solves and returns a bit-identical model.
    ///
    /// If the warm start was built for a different `(spec, goal, search)`
    /// triple it is silently replaced with a fresh cache — a stale warm
    /// start can cost a cold retrain, never a wrong model.
    pub fn retrain_from(&self, warm: &WarmStart) -> CoreResult<(DecisionModel, TrainingArtifacts)> {
        let search = self.config.search_for(&self.goal);
        let cache = if warm.cache().matches(&self.spec, &self.goal, &search) {
            Arc::clone(warm.cache())
        } else {
            self.fresh_cache()
        };
        self.train_cached(cache)
    }

    /// An empty solve cache for this generator's search problem.
    fn fresh_cache(&self) -> Arc<SolveCache> {
        Arc::new(SolveCache::new(
            self.spec.clone(),
            self.goal.clone(),
            self.config.search_for(&self.goal),
            self.config.resolved_cache_capacity(),
        ))
    }

    /// The cold and warm train pipeline: sample, dedup to distinct
    /// signatures, solve only those the cache lacks, then fit. See
    /// [`crate::warm`] for why the result does not depend on the cache.
    fn train_cached(
        &self,
        cache: Arc<SolveCache>,
    ) -> CoreResult<(DecisionModel, TrainingArtifacts)> {
        let mut span = wisedb_obs::span("train.model");
        self.goal.validate_against(&self.spec)?;
        let schema = FeatureSchema::for_spec(&self.spec);
        let start = Instant::now();

        let mut index: HashMap<Signature, usize> = HashMap::new();
        let mut signatures: Vec<Signature> = Vec::new();
        let of_sample: Vec<usize> = self
            .sample_workloads()
            .iter()
            .map(|w| {
                let sig = w.template_counts(self.spec.num_templates());
                *index.entry(sig).or_insert_with_key(|sig| {
                    signatures.push(sig.clone());
                    signatures.len() - 1
                })
            })
            .collect();
        let cached = cache.lookup(&signatures);
        let mut missing: Vec<&Signature> = signatures
            .iter()
            .zip(&cached)
            .filter_map(|(sig, entry)| entry.is_none().then_some(sig))
            .collect();
        let search = self.config.search_for(&self.goal);
        let solved = self.fan_out(&mut missing, |sig| {
            let solver = Solver::new(&self.spec, &self.goal).with_config(search.clone());
            let (solved, explored) = solver.solve_with_explored(&Workload::from_counts(sig))?;
            wisedb_obs::counter_add("wisedb_train_solves_total", 1);
            Ok(Arc::new(SolvedEntry::from_solve(
                &self.spec, &self.goal, &schema, &solved, explored,
            )))
        })?;
        cache.commit(
            missing
                .iter()
                .map(|&sig| sig.clone())
                .zip(solved.iter().cloned())
                .collect(),
            (of_sample.len() - solved.len()) as u64,
        );
        let fresh: Vec<bool> = cached.iter().map(Option::is_none).collect();
        let mut solved = solved.into_iter();
        let entries: Vec<Arc<SolvedEntry>> = cached
            .into_iter()
            .map(|hit| hit.unwrap_or_else(|| solved.next().expect("one solve per miss")))
            .collect();

        let model = self.fit_samples(&mut span, schema, &of_sample, &entries, &fresh, start);
        let artifacts = TrainingArtifacts {
            of_sample,
            signatures,
            entries,
            searchers: Vec::new(),
            warm: WarmStart::new(cache),
        };
        Ok((model, artifacts))
    }

    /// Runs `solve` over `items` on up to [`ModelConfig::threads`] workers,
    /// each owning a contiguous chunk. Every call is independent of the
    /// others and results are merged in item order, so the output is
    /// identical to the serial loop's regardless of thread count or
    /// scheduling.
    fn fan_out<T: Send, R: Send>(
        &self,
        items: &mut [T],
        solve: impl Fn(&mut T) -> CoreResult<R> + Sync,
    ) -> CoreResult<Vec<R>> {
        let requested = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        let threads = requested.clamp(1, items.len().max(1));
        if threads == 1 {
            return items.iter_mut().map(&solve).collect();
        }

        let chunk = items.len().div_ceil(threads);
        let results: Vec<CoreResult<Vec<R>>> = std::thread::scope(|scope| {
            let solve = &solve;
            let handles: Vec<_> = items
                .chunks_mut(chunk)
                .map(|c| scope.spawn(move || c.iter_mut().map(solve).collect()))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(result) => result,
                    // Surface the worker's own panic, not a stand-in.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut out = Vec::with_capacity(items.len());
        for result in results {
            out.extend(result?);
        }
        Ok(out)
    }

    /// Re-trains for a goal **at least as strict** as the one the artifacts
    /// were produced under, reusing each signature's search memo (§5). The
    /// generator's own goal is *not* consulted; `goal` rules. Each distinct
    /// signature is solved once, like a cold train, and duplicate samples
    /// repeat its rows.
    pub fn retrain_tightened(
        &self,
        goal: &PerformanceGoal,
        artifacts: &mut TrainingArtifacts,
    ) -> CoreResult<DecisionModel> {
        let mut span = wisedb_obs::span("train.model");
        goal.validate_against(&self.spec)?;
        let schema = FeatureSchema::for_spec(&self.spec);
        let start = Instant::now();
        if span.recording() {
            span.attr_str("kind", "tightened");
        }

        if artifacts.searchers.is_empty() {
            artifacts.searchers = artifacts
                .entries
                .iter()
                .map(|e| AdaptiveSearcher::warmed(e.searcher_memo()))
                .collect();
        }
        let mut jobs: Vec<_> = artifacts
            .signatures
            .iter()
            .zip(&mut artifacts.searchers)
            .collect();
        let search = self.config.search_for(goal);
        let entries = self.fan_out(&mut jobs, |(sig, searcher)| {
            let solved = searcher.solve(
                &self.spec,
                goal,
                &Workload::from_counts(sig),
                search.clone(),
            )?;
            wisedb_obs::counter_add("wisedb_train_solves_total", 1);
            // The searcher keeps its own memo; the entry is never cached.
            Ok(Arc::new(SolvedEntry::from_solve(
                &self.spec,
                goal,
                &schema,
                &solved,
                ExploredStates::default(),
            )))
        })?;

        let generator = ModelGenerator {
            spec: self.spec.clone(),
            goal: GoalHandle::new(goal.clone()),
            config: self.config.clone(),
        };
        let fresh = vec![true; entries.len()];
        Ok(generator.fit_samples(
            &mut span,
            schema,
            &artifacts.of_sample,
            &entries,
            &fresh,
            start,
        ))
    }

    /// Assembles the dataset in sample order (a duplicate sample repeats
    /// its signature's rows), emits one `train.sample` span per sample, and
    /// fits the tree. `fresh[j]` says whether signature `j` was solved by
    /// this run; every other sample counts as a cache hit.
    /// `training_secs` runs from `started`.
    fn fit_samples(
        &self,
        span: &mut wisedb_obs::Span,
        schema: FeatureSchema,
        of_sample: &[usize],
        entries: &[Arc<SolvedEntry>],
        fresh: &[bool],
        started: Instant,
    ) -> DecisionModel {
        let mut dataset = Dataset::new(schema);
        let mut expanded = 0u64;
        let mut seen = vec![false; entries.len()];
        for &j in of_sample {
            let entry = &entries[j];
            let hit = !fresh[j] || seen[j];
            seen[j] = true;
            let mut sample_span = wisedb_obs::span("train.sample");
            if sample_span.recording() {
                sample_span.attr_u64("queries", self.config.sample_size as u64);
                sample_span.attr_u64("expanded", entry.stats.expanded);
                sample_span.attr_bool("cache_hit", hit);
            }
            drop(sample_span);
            wisedb_obs::counter_add("wisedb_train_samples_total", 1);
            if hit {
                wisedb_obs::counter_add("wisedb_train_cache_hits_total", 1);
            }
            expanded += entry.stats.expanded;
            dataset.rows.extend(entry.rows.iter().cloned());
            dataset.labels.extend(entry.labels.iter().cloned());
        }

        let samples = of_sample.len();
        let solves = fresh.iter().filter(|&&f| f).count();
        let hits = (samples - solves) as u64;
        let tree = DecisionTree::train(&dataset, &self.config.tree);
        let stats = TrainingStats {
            num_samples: samples,
            num_rows: dataset.len(),
            training_accuracy: tree.accuracy(&dataset),
            tree_depth: tree.depth(),
            tree_leaves: tree.num_leaves(),
            search_expanded: expanded,
            solves: solves as u64,
            cache_hits: hits,
            limit_hits: (entries.iter().zip(fresh))
                .filter(|&(e, &f)| f && e.stats.limit_hit)
                .count() as u64,
            training_secs: started.elapsed().as_secs_f64(),
        };
        if span.recording() {
            span.attr_u64("samples", samples as u64);
            span.attr_u64("expanded", expanded);
            span.attr_str("goal", self.goal.kind().name());
            span.attr_u64("cache_hits", hits);
            span.attr_f64("dedup_rate", hits as f64 / (samples.max(1)) as f64);
            span.attr_u64("dataset_rows", stats.num_rows as u64);
        }
        DecisionModel {
            spec: self.spec.clone(),
            goal: self.goal.clone(),
            schema: dataset.schema,
            tree,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_core::{total_cost, GoalKind, Millis, VmType};

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::single_vm(
            vec![
                ("T1", Millis::from_mins(2)),
                ("T2", Millis::from_mins(1)),
                ("T3", Millis::from_mins(3)),
            ],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            num_samples: 60,
            sample_size: 6,
            seed: 7,
            tree: TreeParams::default(),
            search: SearchConfig::default(),
            cache_capacity: 0,
            threads: 0,
        }
    }

    #[test]
    fn training_produces_a_usable_model() {
        let spec = small_spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let model = ModelGenerator::new(spec.clone(), goal.clone(), tiny_config())
            .train()
            .unwrap();
        assert_eq!(model.stats().num_samples, 60);
        assert!(model.stats().num_rows >= 60 * 7); // ≥ m+1 decisions each
        assert!(model.stats().training_accuracy > 0.6);
        assert!(model.stats().tree_depth >= 1);

        let w = Workload::from_counts(&[5, 5, 5]);
        let schedule = model.schedule_batch(&w).unwrap();
        schedule.validate_complete(&w).unwrap();
    }

    #[test]
    fn learned_model_is_near_optimal_on_small_batches() {
        let spec = small_spec();
        // A modest (but not minimal) training budget: quality assertions
        // need enough samples for query-interaction patterns to emerge, as
        // §4.2 stresses (the paper uses N = 3000, m = 18).
        let config = ModelConfig {
            num_samples: 250,
            sample_size: 8,
            seed: 7,
            ..ModelConfig::fast()
        };
        for kind in [GoalKind::MaxLatency, GoalKind::PerQuery] {
            let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
            let model = ModelGenerator::new(spec.clone(), goal.clone(), config.clone())
                .train()
                .unwrap();
            let w = Workload::from_counts(&[3, 3, 3]);
            let schedule = model.schedule_batch(&w).unwrap();
            let cost = total_cost(&spec, &goal, &schedule).unwrap();
            let optimal = Solver::new(&spec, &goal).solve(&w).unwrap().cost;
            assert!(
                cost.as_dollars() <= optimal.as_dollars() * 1.30 + 1e-9,
                "{kind:?}: model {cost} vs optimal {optimal}"
            );
        }
    }

    #[test]
    fn parallel_training_is_bit_identical_to_serial() {
        let spec = small_spec();
        for kind in [GoalKind::MaxLatency, GoalKind::AverageLatency] {
            let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
            let serial =
                ModelGenerator::new(spec.clone(), goal.clone(), tiny_config().with_threads(1))
                    .train()
                    .unwrap();
            let parallel =
                ModelGenerator::new(spec.clone(), goal.clone(), tiny_config().with_threads(4))
                    .train()
                    .unwrap();
            // The tree, schema, and search work are identical bit for bit;
            // only wall-clock timing may differ.
            assert_eq!(serial.render_tree(), parallel.render_tree(), "{kind:?}");
            assert_eq!(serial.schema(), parallel.schema());
            assert_eq!(
                serial.stats().search_expanded,
                parallel.stats().search_expanded
            );
            assert_eq!(serial.stats().num_rows, parallel.stats().num_rows);
            let w = Workload::from_counts(&[4, 3, 2]);
            assert_eq!(
                serial.schedule_batch(&w).unwrap(),
                parallel.schedule_batch(&w).unwrap()
            );
        }
    }

    #[test]
    fn a_tiny_node_limit_makes_every_solve_hit_it() {
        let spec = small_spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut config = tiny_config();
        config.search.node_limit = 2;
        let generator = ModelGenerator::new(spec.clone(), goal.clone(), config);
        let (model, mut artifacts) = generator.train_with_artifacts().unwrap();
        let stats = model.stats();
        assert!(stats.solves > 0);
        assert_eq!(stats.limit_hits, stats.solves);
        // The tightening retrain re-solves every distinct signature under
        // the same budget, so it counts a hit per solve too.
        let tightened = generator
            .retrain_tightened(&goal.tighten_pct(&spec, 0.2), &mut artifacts)
            .unwrap();
        assert_eq!(tightened.stats().solves, stats.solves);
        assert_eq!(tightened.stats().limit_hits, stats.solves);

        // The default budget finishes these small samples.
        let full = ModelGenerator::new(spec, goal, tiny_config())
            .train()
            .unwrap();
        assert_eq!(full.stats().limit_hits, 0);
    }

    #[test]
    fn every_sample_is_a_solve_or_a_cache_hit() {
        let spec = small_spec();
        let goal = PerformanceGoal::paper_default(GoalKind::PerQuery, &spec).unwrap();
        let generator = ModelGenerator::new(spec.clone(), goal.clone(), tiny_config());
        let (cold, mut artifacts) = generator.train_with_artifacts().unwrap();
        let (warm, _) = generator.retrain_from(&artifacts.warm_start()).unwrap();
        let tightened = generator
            .retrain_tightened(&goal.tighten_pct(&spec, 0.2), &mut artifacts)
            .unwrap();
        for (kind, model) in [("cold", &cold), ("warm", &warm), ("tightened", &tightened)] {
            let stats = model.stats();
            assert_eq!(stats.num_samples, tiny_config().num_samples, "{kind}");
            assert_eq!(
                stats.solves + stats.cache_hits,
                stats.num_samples as u64,
                "{kind}"
            );
        }
        // 60 samples of 6 queries over 3 templates repeat signatures, and
        // a tightened retrain solves each distinct one once, as cold does.
        assert!(cold.stats().cache_hits > 0);
        assert_eq!(tightened.stats().solves, cold.stats().solves);
        assert_eq!(warm.stats().solves, 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let spec = small_spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let g1 = ModelGenerator::new(spec.clone(), goal.clone(), tiny_config());
        let g2 = ModelGenerator::new(spec.clone(), goal.clone(), tiny_config());
        assert_eq!(g1.sample_workloads(), g2.sample_workloads());
        let g3 = ModelGenerator::new(spec, goal, tiny_config().with_seed(99));
        assert_ne!(g1.sample_workloads(), g3.sample_workloads());
    }

    #[test]
    fn retrain_tightened_matches_fresh_training_quality() {
        let spec = small_spec();
        let base = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let generator = ModelGenerator::new(spec.clone(), base.clone(), tiny_config());
        let (_, mut artifacts) = generator.train_with_artifacts().unwrap();

        let tightened = base.tighten_pct(&spec, 0.4);
        let adapted = generator
            .retrain_tightened(&tightened, &mut artifacts)
            .unwrap();
        // A model trained from scratch for the tightened goal.
        let fresh = ModelGenerator::new(spec.clone(), tightened.clone(), tiny_config())
            .train()
            .unwrap();

        // Both models schedule a batch; costs should be comparable (the
        // underlying optimal paths are identical; trees may differ slightly).
        let w = Workload::from_counts(&[4, 4, 4]);
        let c_adapted =
            total_cost(&spec, &tightened, &adapted.schedule_batch(&w).unwrap()).unwrap();
        let c_fresh = total_cost(&spec, &tightened, &fresh.schedule_batch(&w).unwrap()).unwrap();
        assert!(
            c_adapted.as_dollars() <= c_fresh.as_dollars() * 1.3 + 1e-9,
            "adapted {c_adapted} vs fresh {c_fresh}"
        );
        assert_eq!(adapted.goal(), &tightened);
    }

    #[test]
    fn model_serde_round_trip() {
        let spec = small_spec();
        let goal = PerformanceGoal::paper_default(GoalKind::PerQuery, &spec).unwrap();
        let model = ModelGenerator::new(spec, goal, tiny_config())
            .train()
            .unwrap();
        let json = model.to_json().unwrap();
        let back = DecisionModel::from_json(&json).unwrap();
        let w = Workload::from_counts(&[2, 2, 2]);
        assert_eq!(
            back.schedule_batch(&w).unwrap(),
            model.schedule_batch(&w).unwrap()
        );
    }

    #[test]
    fn model_config_serializes_search_strategy() {
        let config = ModelConfig {
            search: SearchConfig {
                node_limit: 9_999,
                strategy: SearchStrategy::Anytime,
            },
            ..tiny_config()
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: ModelConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.search, config.search);
        assert_eq!(back.num_samples, config.num_samples);
        // Legacy payloads without a `search` field default to exact.
        let legacy: ModelConfig =
            serde_json::from_str(&json.replace("\"search\"", "\"search_unused\"")).unwrap();
        assert_eq!(legacy.search, SearchConfig::default());
        // A persisted config naming a retired strategy, or anytime's old
        // tunables, fails to load instead of training with another search.
        let anytime = r#"{"node_limit":9999,"strategy":"Anytime"}"#;
        assert!(json.contains(anytime), "{json}");
        for gone in [
            r#""Pea""#,
            r#"{"Beam":{"width":64}}"#,
            r#"{"Anytime":{"weight":1.5,"decay":0.5}}"#,
        ] {
            let stale = json.replace(r#""Anytime""#, gone);
            assert!(
                serde_json::from_str::<ModelConfig>(&stale).is_err(),
                "{stale}"
            );
        }
        // The retired wall-clock budget is an unknown field: ignored on
        // load. (Its name is joined from parts so a search for it finds
        // no code.)
        let retired = ["time", "limit", "ms"].join("_");
        let timed = json.replace(
            anytime,
            &format!(r#"{{"node_limit":9999,"strategy":"Anytime","{retired}":250}}"#),
        );
        let back: ModelConfig = serde_json::from_str(&timed).unwrap();
        assert_eq!(back.search, config.search);
    }

    #[test]
    fn goal_aware_default_trains_percentile_with_anytime() {
        let spec = small_spec();
        let config = ModelConfig::fast();
        let percentile = PerformanceGoal::paper_default(GoalKind::Percentile, &spec).unwrap();
        let max_latency = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        // Percentile training swaps in anytime (same node budget)...
        let resolved = config.search_for(&percentile);
        assert_eq!(resolved.strategy, SearchStrategy::Anytime);
        assert_eq!(resolved.node_limit, config.search.node_limit);
        // ...monotone goals keep exact...
        assert_eq!(
            config.search_for(&max_latency).strategy,
            SearchStrategy::Exact
        );
        // ...and an explicit anytime is kept for every goal.
        let mut explicit = config;
        explicit.search.strategy = SearchStrategy::Anytime;
        assert_eq!(
            explicit.search_for(&max_latency).strategy,
            SearchStrategy::Anytime
        );
    }

    #[test]
    fn nearest_template_matches_by_latency() {
        let spec = small_spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let model = ModelGenerator::new(spec, goal, tiny_config())
            .train()
            .unwrap();
        // 65s is closest to T2 (60s); 170s closest to T3 (180s).
        assert_eq!(model.nearest_template(Millis::from_secs(65)), TemplateId(1));
        assert_eq!(
            model.nearest_template(Millis::from_secs(170)),
            TemplateId(2)
        );
    }

    #[test]
    fn render_tree_speaks_figure_six() {
        let spec = small_spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let model = ModelGenerator::new(spec, goal, tiny_config())
            .train()
            .unwrap();
        let text = model.render_tree();
        assert!(text.contains("assign-") || text.contains("new-"));
    }
}
