//! Tree-driven schedule generation (§4.5, §6.2).
//!
//! Given a trained decision tree, scheduling a batch is a loop: descend the
//! tree from the current partial-schedule vertex, apply the suggested
//! action, repeat until every query is placed — `O(h·n)` overall, which is
//! what lets WiSeDB schedule 30k-query batches in about a second
//! (Figure 17). The descent computes a feature of the vertex only when a
//! split on its path tests it ([`FeatureSchema::feature`]): a path reads a
//! handful of the `1 + 4·templates` columns, so no feature vector is ever
//! materialised.
//!
//! A learned tree can suggest an action that is invalid at the current
//! vertex (assign a depleted or unsupported template, rent a VM while the
//! last one is still empty). The paper's parse procedure implicitly steps
//! around these; we make the guard explicit and deterministic:
//!
//! 1. an invalid `Place(t)` falls back to the *cheapest* valid placement
//!    (by placement-edge weight, Eq. 2);
//! 2. if no placement is valid (fresh VM supporting nothing that remains,
//!    or no VM yet), a VM is rented — the suggested type if valid, else the
//!    type offering the cheapest next placement.
//!
//! Each iteration either places a query or rents a VM that immediately
//! receives one, so the loop terminates after at most `2n` iterations.

use wisedb_core::{
    CoreResult, Money, PerformanceGoal, Placement, QueryId, Schedule, VmInstance, Workload,
    WorkloadSpec,
};
use wisedb_learn::{DecisionTree, FeatureSchema};
use wisedb_search::{CanonicalOrder, Decision, SearchState};

/// How a single scheduling step was decided — for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepSource {
    /// The tree's suggestion was valid and applied as-is.
    Model,
    /// The tree's suggestion was invalid; the guard substituted an action.
    Fallback,
}

/// The decision sequence produced for a batch, with provenance.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Decisions in application order.
    pub decisions: Vec<(Decision, StepSource)>,
    /// Fraction of decisions taken directly from the model.
    pub model_fraction: f64,
}

/// Runs the tree from `initial` until no queries remain, returning the
/// decision sequence. `initial` is normally the empty start vertex; online
/// scheduling seeds it with the currently open VM (§6.3).
///
/// The executor enforces the same canonical-SPT discipline the training
/// paths obeyed (when the goal admits it): the model only ever saw vertices
/// whose open-VM queue is in canonical order, so letting runtime stray off
/// that manifold would feed the tree feature combinations it never trained
/// on. Off-order suggestions are handled by the guard instead.
pub(crate) fn plan_with_tree(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    schema: &FeatureSchema,
    tree: &DecisionTree,
    initial: SearchState,
) -> BatchPlan {
    let canonical = CanonicalOrder::for_goal(spec, goal);
    let mut state = initial;
    let mut decisions = Vec::new();
    let mut from_model = 0usize;
    while !state.is_goal() {
        let label = tree.predict_with(|f| schema.feature(spec, goal, &state, f));
        let suggested = Decision::from_label(label, spec.num_templates());
        let (decision, source) = if is_applicable(spec, goal, &state, canonical.as_ref(), suggested)
        {
            (suggested, StepSource::Model)
        } else {
            (
                fallback_decision(spec, goal, canonical.as_ref(), &state),
                StepSource::Fallback,
            )
        };
        state
            .apply_in_place(spec, goal, decision)
            .expect("guarded decisions are always applicable");
        if source == StepSource::Model {
            from_model += 1;
        }
        decisions.push((decision, source));
    }
    let model_fraction = if decisions.is_empty() {
        1.0
    } else {
        from_model as f64 / decisions.len() as f64
    };
    BatchPlan {
        decisions,
        model_fraction,
    }
}

/// A decision is applicable if the reduced graph offers it, it keeps the
/// open VM's queue canonically ordered (when the reduction is active),
/// it is not a provably dominated placement, and renting a VM would
/// actually help (the type supports a remaining template).
fn is_applicable(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    state: &SearchState,
    canonical: Option<&CanonicalOrder>,
    decision: Decision,
) -> bool {
    if !state.is_valid(spec, decision) {
        return false;
    }
    match decision {
        Decision::Place(t) => {
            canonical.map(|c| c.allows(state, t)).unwrap_or(true)
                && !placement_is_dominated(spec, goal, state, t)
        }
        Decision::CreateVm(v) => spec
            .template_ids()
            .any(|t| state.unassigned[t.index()] > 0 && spec.latency(t, v).is_some()),
    }
}

/// Emmons-style dominance for deadline goals: in a minimum-cost schedule no
/// query's *own* violation exceeds the start-up fee plus whatever violation
/// it would suffer alone on a fresh VM — otherwise moving it to a fresh VM
/// strictly improves the schedule (its penalty vanishes, every query behind
/// it only gets earlier, and monotone goals never charge for being early).
/// Optimal training paths therefore never contain such placements; a tree
/// that suggests one is extrapolating outside its training manifold, so the
/// executor routes it to the guard instead.
fn placement_is_dominated(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    state: &SearchState,
    t: wisedb_core::TemplateId,
) -> bool {
    let Some(last) = &state.last_vm else {
        return false;
    };
    let Some(exec) = spec.latency(t, last.vm_type) else {
        return false;
    };
    let completion = last.wait + exec;
    let min_startup = spec
        .vm_types()
        .iter()
        .map(|v| v.startup_cost)
        .min_by(Money::total_cmp)
        .unwrap_or(Money::ZERO);
    let rate = goal.rate();

    let deadline = match goal {
        PerformanceGoal::MaxLatency { deadline, .. } => *deadline,
        PerformanceGoal::PerQuery { deadlines, .. } => {
            let Some(d) = deadlines.get(t.index()).copied() else {
                return false;
            };
            d
        }
        PerformanceGoal::AverageLatency { target, rate } => {
            // Mean-goal variant of the movement argument: once the batch
            // mean is past the target, relocating a query waiting `w` to a
            // fresh VM refunds `rate·w/n` of penalty for one start-up fee,
            // so optimal schedules never queue long waits behind an
            // already-blown mean.
            let wisedb_core::PenaltyTracker::Average { sum_ms, count } = &state.tracker else {
                return false;
            };
            let new_sum = *sum_ms + completion.as_millis() as u128;
            let new_count = *count + 1;
            let mean = wisedb_core::Millis::from_millis((new_sum / new_count as u128) as u64);
            if mean <= *target {
                return false;
            }
            let n_total = (*count + state.remaining() as u64).max(1);
            let refund = rate.for_violation(last.wait) / n_total as f64;
            return refund > min_startup + Money::from_dollars(1e-12);
        }
        // Percentile goals ride within their allowance; no per-query rule.
        PerformanceGoal::Percentile { .. } => return false,
    };
    let own_violation = completion.saturating_sub(deadline);
    if own_violation.is_zero() {
        return false;
    }
    let fresh_violation = exec.saturating_sub(deadline);
    rate.for_violation(own_violation)
        > min_startup + rate.for_violation(fresh_violation) + Money::from_dollars(1e-12)
}

/// The deterministic guard: a one-step greedy over the reduced graph's
/// out-edges. Placements are priced by their edge weight (Eq. 2); renting
/// is priced by the start-up fee plus the cheapest placement the fresh VM
/// would then offer — so a placement that incurs a large penalty loses to
/// opening a new VM, exactly like the optimal paths the model was trained
/// on.
fn fallback_decision(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    canonical: Option<&CanonicalOrder>,
    state: &SearchState,
) -> Decision {
    let mut best: Option<(Decision, Money)> = None;
    let consider = |d: Decision, w: Money, best: &mut Option<(Decision, Money)>| {
        if best
            .as_ref()
            .map(|(_, bw)| w.total_cmp(bw).is_lt())
            .unwrap_or(true)
        {
            *best = Some((d, w));
        }
    };
    for t in spec.template_ids() {
        let d = Decision::Place(t);
        if !is_applicable(spec, goal, state, canonical, d) {
            continue;
        }
        if let Some(w) = state.edge_weight(spec, goal, d) {
            consider(d, w, &mut best);
        }
    }
    for v in spec.vm_type_ids() {
        let d = Decision::CreateVm(v);
        if !is_applicable(spec, goal, state, canonical, d) {
            continue;
        }
        let (fresh, startup) = state
            .apply(spec, goal, d)
            .expect("applicable decisions apply");
        let cheapest_next = spec
            .template_ids()
            .filter_map(|t| fresh.edge_weight(spec, goal, Decision::Place(t)))
            .min_by(Money::total_cmp)
            .unwrap_or(Money::ZERO);
        consider(d, startup + cheapest_next, &mut best);
    }
    best.map(|(d, _)| d)
        .expect("a validated spec always offers a decision")
}

/// Schedules a whole batch from scratch: plans with the tree and replays
/// the decisions into a concrete [`Schedule`] with real query ids.
pub fn schedule_batch(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    schema: &FeatureSchema,
    tree: &DecisionTree,
    workload: &Workload,
) -> CoreResult<(Schedule, BatchPlan)> {
    workload.validate_against(spec)?;
    let initial = SearchState::for_counts(&workload.template_counts(spec.num_templates()), goal)?;
    let plan = plan_with_tree(spec, goal, schema, tree, initial);

    // Hand out concrete query ids per template, in workload order.
    let mut by_template: Vec<std::collections::VecDeque<QueryId>> =
        vec![Default::default(); spec.num_templates()];
    for q in workload.queries() {
        by_template[q.template.index()].push_back(q.id);
    }
    let mut schedule = Schedule::empty();
    for (decision, _) in &plan.decisions {
        match *decision {
            Decision::CreateVm(v) => schedule.vms.push(VmInstance::new(v)),
            Decision::Place(t) => {
                let id = by_template[t.index()]
                    .pop_front()
                    .expect("plan places exactly the workload's queries");
                schedule
                    .vms
                    .last_mut()
                    .expect("plans always rent before placing")
                    .queue
                    .push(Placement {
                        query: id,
                        template: t,
                    });
            }
        }
    }
    Ok((schedule, plan))
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_core::{Millis, PenaltyRate, TemplateId, VmType, VmTypeId};
    use wisedb_learn::{Dataset, TreeParams};
    use wisedb_search::Solver;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    fn goal() -> PerformanceGoal {
        PerformanceGoal::PerQuery {
            deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
            rate: PenaltyRate::CENT_PER_SECOND,
        }
    }

    fn trained_tree(spec: &WorkloadSpec, goal: &PerformanceGoal) -> (FeatureSchema, DecisionTree) {
        // Train on optimal paths of a few small workloads.
        let mut paths = Vec::new();
        for counts in [[1u32, 1], [2, 1], [1, 2], [2, 2], [0, 2], [2, 0], [1, 3]] {
            let w = Workload::from_counts(&counts);
            paths.push(Solver::new(spec, goal).solve(&w).unwrap());
        }
        let ds = Dataset::from_paths(spec, goal, &paths);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        (ds.schema, tree)
    }

    #[test]
    fn scheduled_batches_are_complete() {
        let spec = spec();
        let goal = goal();
        let (schema, tree) = trained_tree(&spec, &goal);
        for counts in [[3u32, 5], [10, 0], [0, 10], [7, 7]] {
            let w = Workload::from_counts(&counts);
            let (schedule, _) = schedule_batch(&spec, &goal, &schema, &tree, &w).unwrap();
            schedule.validate_complete(&w).unwrap();
        }
    }

    #[test]
    fn model_decisions_dominate_on_in_distribution_batches() {
        let spec = spec();
        let goal = goal();
        let (schema, tree) = trained_tree(&spec, &goal);
        let w = Workload::from_counts(&[4, 4]);
        let (_, plan) = schedule_batch(&spec, &goal, &schema, &tree, &w).unwrap();
        assert!(
            plan.model_fraction > 0.5,
            "fallback dominated: {}",
            plan.model_fraction
        );
    }

    #[test]
    fn learned_schedules_track_optimal_cost() {
        let spec = spec();
        let goal = goal();
        let (schema, tree) = trained_tree(&spec, &goal);
        let w = Workload::from_counts(&[3, 3]);
        let (schedule, _) = schedule_batch(&spec, &goal, &schema, &tree, &w).unwrap();
        let model_cost = wisedb_core::total_cost(&spec, &goal, &schedule).unwrap();
        let optimal = Solver::new(&spec, &goal).solve(&w).unwrap().cost;
        // Within 25% of optimal on this toy spec (the paper reports ≤ 8%
        // on the full setup; the tiny training set here is far cruder).
        assert!(
            model_cost.as_dollars() <= optimal.as_dollars() * 1.25 + 1e-9,
            "model {model_cost} vs optimal {optimal}"
        );
    }

    #[test]
    fn empty_workload_yields_empty_schedule() {
        let spec = spec();
        let goal = goal();
        let (schema, tree) = trained_tree(&spec, &goal);
        let (schedule, plan) =
            schedule_batch(&spec, &goal, &schema, &tree, &Workload::empty()).unwrap();
        assert_eq!(schedule.num_vms(), 0);
        assert!(plan.decisions.is_empty());
        assert_eq!(plan.model_fraction, 1.0);
    }

    /// A vertex counts each template in a `u16`: a bigger batch is a typed
    /// error, not a truncated count that schedules a fraction of it.
    #[test]
    fn oversized_template_counts_are_a_typed_error() {
        let spec = spec();
        let goal = goal();
        let (schema, tree) = trained_tree(&spec, &goal);
        let w = Workload::from_counts(&[65_536, 1]);
        match schedule_batch(&spec, &goal, &schema, &tree, &w) {
            Err(e) => assert_eq!(
                e,
                wisedb_core::CoreError::TemplateCountOverflow {
                    template: TemplateId(0),
                    count: 65_536,
                }
            ),
            Ok((schedule, _)) => panic!("placed {} of {} queries", schedule.num_queries(), w.len()),
        }
    }

    /// A malicious tree that always answers the same action never wedges
    /// the executor: guards keep the schedule progressing and complete.
    #[test]
    fn degenerate_trees_cannot_wedge_the_executor() {
        let spec = spec();
        let goal = goal();
        let schema = FeatureSchema::for_spec(&spec);
        // Build a one-leaf tree that always says "place T1".
        let rows = vec![vec![0.0; schema.num_features()]];
        let labels = vec![Decision::Place(TemplateId(0)).label(2)];
        let ds = Dataset {
            schema,
            rows,
            labels,
        };
        let tree = DecisionTree::train(
            &ds,
            &TreeParams {
                max_depth: 0,
                ..TreeParams::default()
            },
        );
        // A batch with no T1 at all: every step must fall back, and the
        // result must still be a valid complete schedule.
        let w = Workload::from_counts(&[0, 6]);
        let (schedule, plan) = schedule_batch(&spec, &goal, &schema, &tree, &w).unwrap();
        schedule.validate_complete(&w).unwrap();
        assert!(plan.model_fraction < 1.0);
        // T2's 1-minute deadline forces one VM per query.
        assert_eq!(schedule.num_vms(), 6);
    }

    #[test]
    fn multi_type_fallback_prefers_economical_vm() {
        // Two types; the template runs identically on both, small is half
        // price: the fallback VM choice must pick the small type.
        let spec = WorkloadSpec::new(
            vec![wisedb_core::QueryTemplate::uniform(
                "T1",
                vec![Millis::from_mins(1), Millis::from_mins(1)],
            )],
            vec![VmType::t2_medium(), VmType::t2_small()],
        )
        .unwrap();
        let goal = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(1),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let state = SearchState::initial(vec![1], &goal);
        let d = fallback_decision(&spec, &goal, None, &state);
        assert_eq!(d, Decision::CreateVm(VmTypeId(1)));
    }
}
