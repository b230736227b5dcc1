//! Canonical within-VM ordering: an optimality-preserving symmetry
//! reduction the paper does not spell out but that exact search at 30-query
//! scale requires.
//!
//! Classical single-machine results make shortest-processing-time (SPT)
//! order within each VM optimal for every goal WiSeDB supports:
//!
//! * **Max latency** — total tardiness against a *common* due date is
//!   minimized by SPT.
//! * **Average latency** — `ΣC_j` (hence the mean) is minimized by SPT.
//! * **Percentile** — the j-th smallest completion on one machine is at
//!   least the sum of the j smallest execution times, a bound SPT attains
//!   pointwise; so SPT minimizes *every* order statistic.
//! * **Per-query deadlines** — when due dates are *agreeable* with
//!   processing times (`l_a ≤ l_b ⟹ d_a ≤ d_b`, which holds for deadline =
//!   k × latency specifications like the paper's), EDD = SPT minimizes
//!   total tardiness (Emmons' dominance).
//!
//! Under these conditions every schedule can be re-sorted per VM into
//! canonical order without increasing cost, so the searcher may restrict
//! placement edges to non-decreasing canonical rank — collapsing the k!
//! orderings of a k-query queue into one path. For non-agreeable per-query
//! goals the reduction is disabled and the searcher falls back to the full
//! graph.

use wisedb_core::{Millis, PerformanceGoal, TemplateId, VmTypeId, WorkloadSpec};

use crate::state::SearchState;

/// Per-VM-type canonical placement ranks; `None` when the reduction does
/// not apply to this (spec, goal) pair.
#[derive(Debug, Clone)]
pub struct CanonicalOrder {
    /// `rank[vm_type][template]`; `u32::MAX` for unsupported pairs.
    rank: Vec<Vec<u32>>,
}

impl CanonicalOrder {
    /// Builds the canonical order if it is optimality-preserving for
    /// `goal` on `spec`.
    pub fn for_goal(spec: &WorkloadSpec, goal: &PerformanceGoal) -> Option<Self> {
        let deadlines: Option<&[Millis]> = match goal {
            PerformanceGoal::PerQuery { deadlines, .. } => Some(deadlines),
            _ => None,
        };
        let mut rank = Vec::with_capacity(spec.num_vm_types());
        for v in spec.vm_type_ids() {
            // Sort supported templates by (latency, deadline, id); check
            // agreeability for per-query goals.
            let mut order: Vec<(Millis, Millis, u32)> = Vec::new();
            for t in spec.template_ids() {
                let Some(latency) = spec.latency(t, v) else {
                    continue;
                };
                let deadline = deadlines
                    .map(|d| d.get(t.index()).copied().unwrap_or(Millis::ZERO))
                    .unwrap_or(Millis::ZERO);
                order.push((latency, deadline, t.0));
            }
            order.sort();
            if deadlines.is_some() {
                // Agreeable ⟺ after sorting by latency, deadlines are
                // non-decreasing (ties already sorted by deadline).
                let mut prev: Option<(Millis, Millis)> = None;
                for &(latency, deadline, _) in &order {
                    if let Some((pl, pd)) = prev {
                        if latency > pl && deadline < pd {
                            return None;
                        }
                    }
                    // Track the largest deadline seen at ≤ this latency.
                    let carried = prev.map(|(_, pd)| pd.max(deadline)).unwrap_or(deadline);
                    prev = Some((latency, carried));
                }
            }
            let mut ranks = vec![u32::MAX; spec.num_templates()];
            for (i, &(_, _, t)) in order.iter().enumerate() {
                ranks[t as usize] = i as u32;
            }
            rank.push(ranks);
        }
        Some(CanonicalOrder { rank })
    }

    /// Whether placing `t` on the open VM keeps its queue canonically
    /// ordered. Seeded (pre-committed) queue entries never constrain new
    /// placements — only templates placed during this search do.
    pub fn allows(&self, state: &SearchState, t: TemplateId) -> bool {
        let Some(last) = &state.last_vm else {
            return true;
        };
        if last.queue.len() <= last.seeded {
            return true;
        }
        let Some(prev) = last.queue.last() else {
            return true;
        };
        self.in_order(last.vm_type, prev, t)
    }

    /// Whether `next` may directly follow `prev` in a queue on a VM of
    /// type `v`: canonical ranks never decrease.
    pub(crate) fn in_order(&self, v: VmTypeId, prev: TemplateId, next: TemplateId) -> bool {
        let ranks = &self.rank[v.index()];
        ranks[next.index()] >= ranks[prev.index()]
    }

    /// The canonical rank of `t` on `v` (for tests/inspection).
    pub fn rank(&self, v: VmTypeId, t: TemplateId) -> u32 {
        self.rank[v.index()][t.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_core::{PenaltyRate, VmType};

    fn spec() -> WorkloadSpec {
        WorkloadSpec::single_vm(
            vec![
                ("short", Millis::from_mins(1)),
                ("long", Millis::from_mins(4)),
                ("mid", Millis::from_mins(2)),
            ],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    #[test]
    fn ranks_follow_latency() {
        let spec = spec();
        let goal = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(9),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let order = CanonicalOrder::for_goal(&spec, &goal).unwrap();
        let v = VmTypeId(0);
        assert!(order.rank(v, TemplateId(0)) < order.rank(v, TemplateId(2)));
        assert!(order.rank(v, TemplateId(2)) < order.rank(v, TemplateId(1)));
    }

    #[test]
    fn agreeable_per_query_deadlines_qualify() {
        let spec = spec();
        // deadline = 3x latency: agreeable.
        let goal = PerformanceGoal::PerQuery {
            deadlines: vec![
                Millis::from_mins(3),
                Millis::from_mins(12),
                Millis::from_mins(6),
            ],
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        assert!(CanonicalOrder::for_goal(&spec, &goal).is_some());
    }

    #[test]
    fn non_agreeable_deadlines_disable_the_reduction() {
        let spec = spec();
        // The longest query has the tightest deadline: EDD ≠ SPT.
        let goal = PerformanceGoal::PerQuery {
            deadlines: vec![
                Millis::from_mins(10),
                Millis::from_mins(5),
                Millis::from_mins(8),
            ],
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        assert!(CanonicalOrder::for_goal(&spec, &goal).is_none());
    }

    #[test]
    fn allows_checks_the_open_queue_tail() {
        use crate::decision::Decision;
        let spec = spec();
        let goal = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(20),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let order = CanonicalOrder::for_goal(&spec, &goal).unwrap();
        let state = SearchState::initial(vec![1, 1, 1], &goal);
        let (state, _) = state
            .apply(&spec, &goal, Decision::CreateVm(VmTypeId(0)))
            .unwrap();
        // Empty queue: everything allowed.
        assert!(order.allows(&state, TemplateId(1)));
        let (state, _) = state
            .apply(&spec, &goal, Decision::Place(TemplateId(2)))
            .unwrap();
        // "mid" placed: "short" would break SPT, "long" keeps it.
        assert!(!order.allows(&state, TemplateId(0)));
        assert!(order.allows(&state, TemplateId(1)));
        assert!(order.allows(&state, TemplateId(2)));
    }
}
