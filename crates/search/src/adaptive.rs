//! Adaptive A* (§5): reusing one search to accelerate the next.
//!
//! When a decision model must be rebuilt for a *stricter* goal `R'`, the
//! scheduling graphs of the training workloads keep their structure — only
//! placement-edge weights grow (penalties can only increase under a tighter
//! goal, Eq. 4). Following Koenig & Likhachev's adaptive A*, the cost-to-go
//! observed under the old goal,
//!
//! ```text
//! h'(v) = cost(R, g) − cost(R, v)
//! ```
//!
//! is an admissible heuristic for the new search (Lemma 5.1), and combined
//! with the base heuristic as `max(h, h')` it typically re-solves a sample
//! workload in a fraction of the original time. This is also what makes the
//! online *Shift* optimization cheap (§6.3.1): scheduling delayed queries
//! equals searching under a goal tightened by the delay.

use wisedb_core::{CoreResult, PerformanceGoal, Workload, WorkloadSpec};

use crate::strategy::{HeuristicMemo, OptimalSchedule, SearchConfig, Solver};

/// Per-workload adaptive search state: solve once, then re-solve cheaply for
/// any sequence of monotonically *tightening* goals.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveSearcher {
    memo: HeuristicMemo,
}

impl AdaptiveSearcher {
    /// A searcher with no reuse information yet.
    pub fn new() -> Self {
        AdaptiveSearcher::default()
    }

    /// A searcher pre-seeded with reuse information from an earlier solve of
    /// the **same workload** (the warm-training path rebuilds per-signature
    /// searchers from cached solves this way). The caller is responsible for
    /// the memo's admissibility: every entry must be a sound lower bound on
    /// the cost-to-go of that vertex in this workload's scheduling graph.
    pub fn warmed(memo: HeuristicMemo) -> Self {
        AdaptiveSearcher { memo }
    }

    /// Number of vertices with reuse information.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Solves `workload` under `goal`, exploiting any reuse information from
    /// earlier solves and recording new information for later ones.
    ///
    /// Correctness requires each successive call to use the *same workload*
    /// and a goal **at least as strict** as every previous one (the paper's
    /// setting: start loose, tighten incrementally).
    ///
    /// Reuse is applied only for **monotone** goals. Lemma 5.1's premise —
    /// tightening never lowers an edge weight — holds per-edge for deadline
    /// goals, but for average/percentile goals a penalty-*refunding* edge
    /// can refund more under the tighter goal, making the reuse heuristic
    /// inadmissible. For those goals this method degenerates to a fresh A*
    /// (which still benefits from the strengthened base heuristic), keeping
    /// every returned schedule provably optimal.
    ///
    /// With [`SearchStrategy::Anytime`](crate::strategy::SearchStrategy::Anytime)
    /// in `config`, the memo is still *consulted* — layering more
    /// admissible information under an inflated heuristic is sound — but
    /// new entries are recorded only from solves whose result is **provably
    /// optimal** ([`crate::strategy::SearchStats::optimal`]): Lemma 5.1's
    /// `h'(v) = cost(R, g) − cost(R, v)` is admissible only when
    /// `cost(R, g)` is the true optimum, so a suboptimal incumbent must
    /// never seed the memo.
    pub fn solve(
        &mut self,
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        workload: &Workload,
        config: SearchConfig,
    ) -> CoreResult<OptimalSchedule> {
        let reuse = goal.is_monotone();
        let searcher = Solver::new(spec, goal).with_config(config);
        let searcher = if reuse {
            searcher.with_memo(&self.memo)
        } else {
            searcher
        };
        let (result, explored) = searcher.solve_with_explored(workload)?;
        if reuse && result.stats.optimal {
            let goal_cost = result.cost.as_dollars();
            for (key, g) in explored.iter() {
                let h = goal_cost - g;
                if h <= 0.0 {
                    continue;
                }
                self.memo.raise(key, h);
            }
        }
        Ok(result)
    }
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

    #[test]
    fn adaptive_matches_fresh_search_on_tightening_ladder() {
        let spec = spec();
        let workload = Workload::from_counts(&[2, 2, 2]);
        for kind in GoalKind::ALL {
            let base = PerformanceGoal::paper_default(kind, &spec).unwrap();
            let mut adaptive = AdaptiveSearcher::new();
            for pct in [0.0, 0.2, 0.4, 0.6, 0.8] {
                let goal = base.tighten_pct(&spec, pct);
                let reused = adaptive
                    .solve(&spec, &goal, &workload, SearchConfig::default())
                    .unwrap();
                let fresh = Solver::new(&spec, &goal).solve(&workload).unwrap();
                assert!(
                    reused.cost.approx_eq(fresh.cost, 1e-9),
                    "{kind:?} at {pct}: adaptive={} fresh={}",
                    reused.cost,
                    fresh.cost
                );
            }
        }
    }

    #[test]
    fn reuse_prunes_expansions() {
        let spec = spec();
        let workload = Workload::from_counts(&[3, 3, 3]);
        let base = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut adaptive = AdaptiveSearcher::new();
        adaptive
            .solve(&spec, &base, &workload, SearchConfig::default())
            .unwrap();
        assert!(adaptive.memo_len() > 0);

        let tightened = base.tighten_pct(&spec, 0.3);
        let reused = adaptive
            .solve(&spec, &tightened, &workload, SearchConfig::default())
            .unwrap();
        let fresh = Solver::new(&spec, &tightened).solve(&workload).unwrap();
        assert!(reused.cost.approx_eq(fresh.cost, 1e-9));
        assert!(
            reused.stats.expanded <= fresh.stats.expanded,
            "reuse expanded {} > fresh {}",
            reused.stats.expanded,
            fresh.stats.expanded
        );
    }

    #[test]
    fn costs_never_decrease_as_goals_tighten() {
        let spec = spec();
        let workload = Workload::from_counts(&[2, 1, 2]);
        let base = PerformanceGoal::paper_default(GoalKind::PerQuery, &spec).unwrap();
        let mut adaptive = AdaptiveSearcher::new();
        let mut last = None;
        for pct in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let goal = base.tighten_pct(&spec, pct);
            let result = adaptive
                .solve(&spec, &goal, &workload, SearchConfig::default())
                .unwrap();
            if let Some(prev) = last {
                assert!(result.cost >= prev, "tightening to {pct} lowered cost");
            }
            last = Some(result.cost);
        }
    }
}
