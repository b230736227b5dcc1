//! Strategy recommendation (§6.1): exploring the performance/cost
//! trade-off.
//!
//! WiSeDB does not hand the application a single model. It builds a ladder
//! of performance goals around the requested one (looser → stricter),
//! derives a decision model for each via adaptive retraining (§5 — the
//! loosest is trained fresh, each stricter one reuses the samples' search
//! memos), prices each model's behaviour per query template on a large
//! random sample, and then prunes the ladder with Earth Mover's Distance
//! until only `k` *meaningfully different* strategies remain. Each surviving
//! strategy carries a cost-estimation function of the per-template instance
//! counts, so applications can price a future workload without executing —
//! or even scheduling — it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use wisedb_core::{
    CoreResult, Money, PerformanceGoal, Schedule, TemplateId, Workload, WorkloadSpec,
};

use crate::emd::emd_1d;
use crate::model::{DecisionModel, ModelConfig, ModelGenerator};

/// Recommender tunables.
#[derive(Debug, Clone)]
pub struct RecommenderConfig {
    /// Goals in the initial ladder (odd keeps the user goal at the median).
    pub ladder_size: usize,
    /// Strategies to keep after EMD pruning (`k`).
    pub keep: usize,
    /// Half-width of the strictness range: goals span `[-spread, +spread]`
    /// around the user goal (fractions of the gap to the strictest
    /// feasible goal, §7.3's strictness factor).
    pub spread: f64,
    /// Queries in the random sample used to price each strategy.
    pub costing_sample: usize,
    /// Seed for the costing sample.
    pub seed: u64,
    /// Training configuration for the ladder models.
    pub training: ModelConfig,
}

impl Default for RecommenderConfig {
    fn default() -> Self {
        RecommenderConfig {
            ladder_size: 7,
            keep: 3,
            spread: 0.5,
            costing_sample: 1000,
            seed: 0xC057,
            training: ModelConfig::fast(),
        }
    }
}

/// A per-template average-cost pricing function for one strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostEstimator {
    /// Average cost attributed to one instance of each template.
    pub per_template_avg: Vec<Money>,
}

impl CostEstimator {
    /// Expected cost of a workload with `counts[i]` instances of template
    /// `i` — the §6.1 cost-estimation function.
    pub fn estimate(&self, counts: &[u32]) -> Money {
        self.per_template_avg
            .iter()
            .zip(counts)
            .map(|(&avg, &c)| avg * c as f64)
            .sum()
    }

    /// The profile EMD pruning compares.
    pub(crate) fn profile(&self) -> Vec<f64> {
        self.per_template_avg
            .iter()
            .map(|m| m.as_dollars().max(0.0))
            .collect()
    }
}

/// One recommended workload-management strategy.
#[derive(Debug)]
pub struct Strategy {
    /// Signed strictness factor relative to the user goal (0 = as asked;
    /// negative = more relaxed, cheaper; positive = stricter, pricier).
    pub strictness: f64,
    /// The concrete performance goal.
    pub goal: PerformanceGoal,
    /// The decision model trained for that goal.
    pub model: DecisionModel,
    /// Its per-template pricing function.
    pub estimator: CostEstimator,
}

/// Builds and prunes the strategy ladder.
pub struct StrategyRecommender {
    spec: WorkloadSpec,
    goal: PerformanceGoal,
    config: RecommenderConfig,
}

impl StrategyRecommender {
    /// Creates a recommender around the application's goal.
    pub fn new(spec: WorkloadSpec, goal: PerformanceGoal, config: RecommenderConfig) -> Self {
        StrategyRecommender { spec, goal, config }
    }

    /// Trains the ladder, prices it, and prunes it to `keep` strategies
    /// (sorted loosest first).
    pub fn recommend(&self) -> CoreResult<Vec<Strategy>> {
        let n = self.config.ladder_size.max(2);
        let spread = self.config.spread;
        // Loosest → strictest, so adaptive retraining's "only tighten"
        // precondition holds along the ladder.
        let strictness: Vec<f64> = (0..n)
            .map(|i| -spread + (2.0 * spread) * i as f64 / (n - 1) as f64)
            .collect();

        let loosest = self.goal.tighten_pct(&self.spec, strictness[0]);
        let generator = ModelGenerator::new(
            self.spec.clone(),
            loosest.clone(),
            self.config.training.clone(),
        );
        let (first_model, mut artifacts) = generator.train_with_artifacts()?;

        let mut strategies: Vec<Strategy> = Vec::with_capacity(n);
        let sample = self.costing_workload();
        for (i, &s) in strictness.iter().enumerate() {
            let goal = self.goal.tighten_pct(&self.spec, s);
            let model = if i == 0 {
                first_model.clone()
            } else {
                generator.retrain_tightened(&goal, &mut artifacts)?
            };
            let estimator = self.price(&model, &goal, &sample)?;
            strategies.push(Strategy {
                strictness: s,
                goal,
                model,
                estimator,
            });
        }

        // EMD pruning: drop the stricter member of the closest pair.
        while strategies.len() > self.config.keep.max(1) {
            let mut min_at = 1usize;
            let mut min_d = f64::INFINITY;
            for i in 0..strategies.len() - 1 {
                let d = emd_1d(
                    &strategies[i].estimator.profile(),
                    &strategies[i + 1].estimator.profile(),
                );
                if d < min_d {
                    min_d = d;
                    min_at = i + 1;
                }
            }
            strategies.remove(min_at);
        }
        Ok(strategies)
    }

    fn costing_workload(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let nt = self.spec.num_templates() as u32;
        Workload::from_templates(
            (0..self.config.costing_sample).map(|_| TemplateId(rng.gen_range(0..nt))),
        )
    }

    fn price(
        &self,
        model: &DecisionModel,
        goal: &PerformanceGoal,
        sample: &Workload,
    ) -> CoreResult<CostEstimator> {
        let schedule = model.schedule_batch(sample)?;
        let totals = attribute_costs(&self.spec, goal, &schedule)?;
        let counts = sample.template_counts(self.spec.num_templates());
        let per_template_avg = totals
            .iter()
            .zip(&counts)
            .map(|(&total, &c)| {
                if c == 0 {
                    Money::ZERO
                } else {
                    total / c as f64
                }
            })
            .collect();
        Ok(CostEstimator { per_template_avg })
    }
}

/// Attributes a schedule's total cost (Eq. 1) to templates:
/// each query carries its own runtime; a VM's start-up fee is split evenly
/// across its queue; per-query violations (deadline goals) stick to the
/// violating query, while workload-level penalties (average, percentile)
/// are split evenly across all queries.
pub fn attribute_costs(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    schedule: &Schedule,
) -> CoreResult<Vec<Money>> {
    let mut totals = vec![Money::ZERO; spec.num_templates()];
    let latencies = schedule.query_latencies(spec)?;
    let num_queries = latencies.len().max(1);

    for vm in &schedule.vms {
        let vm_type = spec.vm_type(vm.vm_type)?;
        if vm.queue.is_empty() {
            continue;
        }
        let share = vm_type.startup_cost / vm.queue.len() as f64;
        for p in &vm.queue {
            let exec = spec.latency(p.template, vm.vm_type).ok_or(
                wisedb_core::CoreError::UnsupportedPlacement {
                    template: p.template,
                    vm_type: vm.vm_type,
                },
            )?;
            totals[p.template.index()] += share + vm_type.runtime_cost(exec);
        }
    }

    match goal {
        PerformanceGoal::PerQuery { deadlines, rate } => {
            for l in &latencies {
                let d = deadlines
                    .get(l.template.index())
                    .copied()
                    .unwrap_or(wisedb_core::Millis::ZERO);
                totals[l.template.index()] += rate.for_violation(l.latency.saturating_sub(d));
            }
        }
        PerformanceGoal::MaxLatency { deadline, rate } => {
            for l in &latencies {
                totals[l.template.index()] +=
                    rate.for_violation(l.latency.saturating_sub(*deadline));
            }
        }
        PerformanceGoal::AverageLatency { .. } | PerformanceGoal::Percentile { .. } => {
            let penalty = goal.penalty(&latencies);
            let share = penalty / num_queries as f64;
            for l in &latencies {
                totals[l.template.index()] += share;
            }
        }
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_core::{GoalKind, Millis, VmType};

    fn spec() -> WorkloadSpec {
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

    fn config() -> RecommenderConfig {
        RecommenderConfig {
            ladder_size: 5,
            keep: 3,
            spread: 0.5,
            costing_sample: 120,
            seed: 1,
            training: ModelConfig {
                num_samples: 40,
                sample_size: 5,
                seed: 2,
                ..ModelConfig::fast()
            },
        }
    }

    #[test]
    fn recommends_k_strategies_in_strictness_order() {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let strategies = StrategyRecommender::new(spec, goal, config())
            .recommend()
            .unwrap();
        assert_eq!(strategies.len(), 3);
        for w in strategies.windows(2) {
            assert!(w[0].strictness < w[1].strictness);
        }
    }

    #[test]
    fn estimators_scale_linearly_in_counts() {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::PerQuery, &spec).unwrap();
        let strategies = StrategyRecommender::new(spec, goal, config())
            .recommend()
            .unwrap();
        let est = &strategies[0].estimator;
        let single = est.estimate(&[1, 0, 0]);
        let triple = est.estimate(&[3, 0, 0]);
        assert!(triple.approx_eq(single * 3.0, 1e-9));
        let mixed = est.estimate(&[1, 2, 0]);
        assert!(mixed.approx_eq(single + est.estimate(&[0, 2, 0]), 1e-9));
    }

    #[test]
    fn estimates_are_positive_and_roughly_cover_runtime() {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let strategies = StrategyRecommender::new(spec.clone(), goal, config())
            .recommend()
            .unwrap();
        for s in &strategies {
            for t in spec.template_ids() {
                let avg = s.estimator.per_template_avg[t.index()];
                let runtime = spec.cheapest_runtime_cost(t).unwrap();
                // Every instance costs at least its own cheapest runtime.
                assert!(
                    avg.as_dollars() >= runtime.as_dollars() * 0.99,
                    "template {t}: avg {avg} below runtime {runtime}"
                );
            }
        }
    }

    #[test]
    fn attribution_sums_to_total_cost() {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::AverageLatency, &spec).unwrap();
        let model = ModelGenerator::new(
            spec.clone(),
            goal.clone(),
            ModelConfig {
                num_samples: 30,
                sample_size: 5,
                seed: 11,
                ..ModelConfig::fast()
            },
        )
        .train()
        .unwrap();
        let workload = Workload::from_counts(&[4, 4, 4]);
        let schedule = model.schedule_batch(&workload).unwrap();
        let attributed: Money = attribute_costs(&spec, &goal, &schedule)
            .unwrap()
            .into_iter()
            .sum();
        let total = wisedb_core::total_cost(&spec, &goal, &schedule).unwrap();
        assert!(
            attributed.approx_eq(total, 1e-9),
            "attributed {attributed} vs total {total}"
        );
    }

    #[test]
    fn pruning_respects_keep_and_preserves_order() {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut cfg = config();
        cfg.keep = 5; // whole ladder
        let full = StrategyRecommender::new(spec.clone(), goal.clone(), cfg.clone())
            .recommend()
            .unwrap();
        assert_eq!(full.len(), 5);

        cfg.keep = 2;
        let pruned = StrategyRecommender::new(spec, goal, cfg)
            .recommend()
            .unwrap();
        assert_eq!(pruned.len(), 2);
        // Pruned strategies are a subset of the ladder's strictness values,
        // still sorted, and pruning never invents new goals.
        let ladder: Vec<f64> = full.iter().map(|s| s.strictness).collect();
        for s in &pruned {
            assert!(ladder.iter().any(|&l| (l - s.strictness).abs() < 1e-12));
        }
        assert!(pruned[0].strictness < pruned[1].strictness);
        // Pruning drops the stricter member of the closest pair, so the
        // loosest strategy always survives.
        assert_eq!(pruned[0].strictness, ladder[0]);
    }
}
